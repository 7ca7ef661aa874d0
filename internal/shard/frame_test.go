package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// frameAddrs and frameMatches are one small batch exercising every row
// shape: both source kinds, a miss, and the /1 and /32 boundaries.
var (
	frameAddrs = []netutil.Addr{
		netutil.MustParseAddr("12.65.147.94"), netutil.MustParseAddr("0.0.0.0"),
		netutil.MustParseAddr("200.1.2.3"), netutil.MustParseAddr("255.255.255.255"),
	}
	frameMatches = []bgp.Match{
		{Prefix: netutil.MustParsePrefix("12.65.128.0/19"), Kind: bgp.SourceBGP},
		{},
		{Prefix: netutil.MustParsePrefix("128.0.0.0/1"), Kind: bgp.SourceNetworkDump},
		{Prefix: netutil.MustParsePrefix("255.255.255.255/32"), Kind: bgp.SourceBGP},
	}
)

// edit returns a copy of frame with fn applied.
func edit(frame []byte, fn func(b []byte) []byte) []byte {
	return fn(append([]byte(nil), frame...))
}

// badResponses is one frame per rejection rule of DecodeResponseFrame,
// each a single edit away from the valid response to frameAddrs.
func badResponses() map[string][]byte {
	good := AppendResponseFrame(nil, 7, frameMatches)
	n := len(frameMatches)
	bits, kind := responseHeaderLen+4*n, responseHeaderLen+5*n
	return map[string][]byte{
		"empty":         nil,
		"short header":  good[:responseHeaderLen-1],
		"wrong magic":   edit(good, func(b []byte) []byte { b[3] = 'X'; return b }),
		"request magic": edit(good, func(b []byte) []byte { copy(b, requestMagic); return b }),
		"wrong count":   edit(good, func(b []byte) []byte { b[4]++; return b }),
		"short body":    good[:len(good)-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
		"bits 33":       edit(good, func(b []byte) []byte { b[bits] = 33; return b }),
		"host bits set": edit(good, func(b []byte) []byte { b[responseHeaderLen] |= 1; return b }),
		"unknown kind":  edit(good, func(b []byte) []byte { b[kind] = uint8(bgp.SourceNetworkDump) + 1; return b }),
		"miss with kind": edit(good, func(b []byte) []byte {
			b[kind+1] = uint8(bgp.SourceNetworkDump)
			return b
		}),
		"miss with base": edit(good, func(b []byte) []byte { b[responseHeaderLen+4] = 1; return b }),
	}
}

// badRequests is one frame per rejection rule of DecodeRequestFrame
// (decoded with limit len(frameAddrs)).
func badRequests() map[string][]byte {
	good := AppendRequestFrame(nil, frameAddrs)
	return map[string][]byte{
		"empty":          nil,
		"short header":   good[:requestHeaderLen-1],
		"wrong magic":    edit(good, func(b []byte) []byte { b[0] = 'n'; return b }),
		"response magic": edit(good, func(b []byte) []byte { copy(b, responseMagic); return b }),
		"short body":     good[:len(good)-1],
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"count too low":  edit(good, func(b []byte) []byte { b[4]--; return b }),
		"over limit":     AppendRequestFrame(nil, append(frameAddrs[:len(frameAddrs):len(frameAddrs)], 1)),
		"count 2^32-1":   edit(good, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 1<<32-1); return b }),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	req := AppendRequestFrame([]byte("prefix"), frameAddrs)[len("prefix"):]
	if len(req) != requestFrameLen(len(frameAddrs)) {
		t.Fatalf("request frame is %d bytes, want %d", len(req), requestFrameLen(len(frameAddrs)))
	}
	addrs, err := DecodeRequestFrame(req, len(frameAddrs), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range frameAddrs {
		if addrs[i] != a {
			t.Fatalf("address %d decoded as %s, want %s", i, addrs[i], a)
		}
	}

	resp := AppendResponseFrame([]byte("prefix"), 1<<40+3, frameMatches)[len("prefix"):]
	if len(resp) != responseFrameLen(len(frameMatches)) {
		t.Fatalf("response frame is %d bytes, want %d", len(resp), responseFrameLen(len(frameMatches)))
	}
	matches, gen, err := DecodeResponseFrame(resp, len(frameMatches), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1<<40+3 {
		t.Fatalf("generation %d", gen)
	}
	for i, m := range frameMatches {
		if matches[i] != m {
			t.Fatalf("row %d decoded as %+v, want %+v", i, matches[i], m)
		}
	}

	// The empty batch is a header and nothing else, both ways.
	if a, err := DecodeRequestFrame(AppendRequestFrame(nil, nil), 0, nil); err != nil || len(a) != 0 {
		t.Fatalf("empty request: %v %v", a, err)
	}
	if m, g, err := DecodeResponseFrame(AppendResponseFrame(nil, 9, nil), 0, nil); err != nil || len(m) != 0 || g != 9 {
		t.Fatalf("empty response: %v %d %v", m, g, err)
	}
}

func TestFrameDecodersReject(t *testing.T) {
	for name, frame := range badRequests() {
		addrs, err := DecodeRequestFrame(frame, len(frameAddrs), nil)
		if err == nil {
			t.Errorf("request %q accepted as %v", name, addrs)
		}
		if over := name == "over limit" || name == "count 2^32-1"; over != errors.Is(err, errBatchTooLarge) {
			t.Errorf("request %q: %v", name, err)
		}
	}
	for name, frame := range badResponses() {
		if m, _, err := DecodeResponseFrame(frame, len(frameMatches), nil); err == nil {
			t.Errorf("response %q accepted as %+v", name, m)
		}
	}
	// A well-formed answer to a different number of addresses is refused.
	good := AppendResponseFrame(nil, 7, frameMatches)
	if _, _, err := DecodeResponseFrame(good, len(frameMatches)+1, nil); err == nil {
		t.Error("4-row response accepted for 5 addresses")
	}
}

// FuzzDecodeBatchFrame holds both decoders to their contract on arbitrary
// bytes: never panic, and accept only frames that re-encode to exactly
// the bytes received — which rules out any slack a lying node could hide
// in.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add(AppendRequestFrame(nil, frameAddrs))
	f.Add(AppendResponseFrame(nil, 7, frameMatches))
	f.Add(AppendRequestFrame(nil, nil))
	f.Add(AppendResponseFrame(nil, 0, nil))
	for _, frame := range badRequests() {
		f.Add(frame)
	}
	for _, frame := range badResponses() {
		f.Add(frame)
	}
	const limit = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		if addrs, err := DecodeRequestFrame(data, limit, nil); err == nil {
			if len(addrs) > limit {
				t.Fatalf("accepted %d addresses past the limit %d", len(addrs), limit)
			}
			if again := AppendRequestFrame(nil, addrs); !bytes.Equal(again, data) {
				t.Fatalf("request re-encodes as %x, was %x", again, data)
			}
		}
		// The router knows how many rows it is owed; offer the decoder the
		// count the frame itself claims, and one it does not.
		want := 0
		if len(data) >= 8 {
			want = int(binary.LittleEndian.Uint32(data[4:]) % (limit + 1))
		}
		matches, gen, err := DecodeResponseFrame(data, want, nil)
		if err == nil {
			if len(matches) != want {
				t.Fatalf("accepted %d rows for %d addresses", len(matches), want)
			}
			for i, m := range matches {
				if m.Prefix.IsZero() != (m == bgp.Match{}) || m.Kind > bgp.SourceNetworkDump {
					t.Fatalf("row %d decoded as %+v", i, m)
				}
			}
			if again := AppendResponseFrame(nil, gen, matches); !bytes.Equal(again, data) {
				t.Fatalf("response re-encodes as %x, was %x", again, data)
			}
		}
		if _, _, err := DecodeResponseFrame(data, want+1, nil); err == nil {
			t.Fatalf("accepted a frame for %d addresses and for %d", want, want+1)
		}
	})
}
