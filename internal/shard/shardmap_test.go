package shard

import (
	"encoding/json"
	"fmt"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

func TestNewMapTilesExactly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 255, 256} {
		m := NewMap(n)
		if err := m.Validate(); err != nil {
			t.Fatalf("NewMap(%d): %v", n, err)
		}
		if m.NumShards() != n {
			t.Fatalf("NewMap(%d) has %d shards", n, m.NumShards())
		}
		// Every /8 block must land in the shard that claims it.
		for b := 0; b < 256; b++ {
			s := m.ShardFor(netutil.Addr(uint32(b) << 24))
			if b < m.Shards[s].FirstBlock || b > m.Shards[s].LastBlock {
				t.Fatalf("NewMap(%d): block %d routed to shard %d [%d,%d]",
					n, b, s, m.Shards[s].FirstBlock, m.Shards[s].LastBlock)
			}
		}
	}
}

func TestMapValidateRejectsBadMaps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards []Info
	}{
		{"empty", nil},
		{"gap", []Info{{ID: 0, FirstBlock: 0, LastBlock: 100}, {ID: 1, FirstBlock: 102, LastBlock: 255}}},
		{"overlap", []Info{{ID: 0, FirstBlock: 0, LastBlock: 128}, {ID: 1, FirstBlock: 100, LastBlock: 255}}},
		{"short", []Info{{ID: 0, FirstBlock: 0, LastBlock: 200}}},
		{"bad ids", []Info{{ID: 1, FirstBlock: 0, LastBlock: 255}}},
		{"inverted", []Info{{ID: 0, FirstBlock: 0, LastBlock: 255}, {ID: 1, FirstBlock: 256, LastBlock: 250}}},
	} {
		m := &Map{Version: 1, Shards: tc.shards}
		if err := m.Validate(); err == nil {
			t.Errorf("%s map validated", tc.name)
		}
	}
}

func TestParseMapRoundTrip(t *testing.T) {
	m := NewMap(4)
	m.Version = 7
	m.Shards[2].Addr = "http://127.0.0.1:9999"
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.NumShards() != 4 || got.Shards[2].Addr != m.Shards[2].Addr {
		t.Fatalf("round trip = %+v", got)
	}
	// The derived index must be rebuilt on parse.
	if got.ShardFor(netutil.MustParseAddr("255.0.0.1")) != 3 {
		t.Fatalf("parsed map routes 255/8 to shard %d", got.ShardFor(netutil.MustParseAddr("255.0.0.1")))
	}
	if _, err := ParseMap([]byte(`{"version":1,"shards":[{"id":0,"first_block":0,"last_block":10}]}`)); err == nil {
		t.Fatal("partial map parsed")
	}
}

func TestOverlapsSpanningPrefix(t *testing.T) {
	m := NewMap(3)                              // shard 0: blocks 0-84, shard 1: 85-169, shard 2: 170-255
	p6 := netutil.MustParsePrefix("84.0.0.0/6") // blocks 84..87: spans shards 0 and 1
	if !m.Overlaps(0, p6) || !m.Overlaps(1, p6) {
		t.Fatalf("/6 across the boundary overlaps = %v,%v, want true,true",
			m.Overlaps(0, p6), m.Overlaps(1, p6))
	}
	if m.Overlaps(2, p6) {
		t.Fatal("/6 reported in a shard it cannot reach")
	}
	// A shard must keep every prefix that could be the longest match for
	// an owned address, even when the prefix starts outside its range.
	if !m.Keep(1)(p6) {
		t.Fatal("Keep(1) rejected a spanning prefix")
	}
}

func TestFilterDelta(t *testing.T) {
	m := NewMap(2) // shard 0: blocks 0-127, shard 1: 128-255
	d := bgp.Delta{Source: "feed", Ops: []bgp.Op{
		{Kind: bgp.SourceBGP, Entry: bgp.Entry{Prefix: netutil.MustParsePrefix("10.0.0.0/8")}},
		{Kind: bgp.SourceBGP, Entry: bgp.Entry{Prefix: netutil.MustParsePrefix("200.1.0.0/16")}},
		{Withdraw: true, Kind: bgp.SourceBGP, Entry: bgp.Entry{Prefix: netutil.MustParsePrefix("100.0.0.0/7")}},
	}}
	d0 := FilterDelta(m.Keep(0), d)
	if len(d0.Ops) != 2 || d0.Ops[0].Entry.Prefix.String() != "10.0.0.0/8" || d0.Ops[1].Entry.Prefix.String() != "100.0.0.0/7" {
		t.Fatalf("shard 0 delta = %+v", d0.Ops)
	}
	d1 := FilterDelta(m.Keep(1), d)
	// 100.0.0.0/7 spans 100..101.x — entirely inside shard 0's range.
	if len(d1.Ops) != 1 || d1.Ops[0].Entry.Prefix.String() != "200.1.0.0/16" {
		t.Fatalf("shard 1 delta = %+v", d1.Ops)
	}
	if kept := FilterDelta(m.Keep(0), d0); len(kept.Ops) != len(d0.Ops) {
		t.Fatal("fully-kept delta changed size")
	}
	if d1.Source != "feed" {
		t.Fatal("filter dropped the source label")
	}
}

func TestGroupPreservesInputOrder(t *testing.T) {
	m := NewMap(3)
	addrs := []netutil.Addr{
		netutil.MustParseAddr("200.0.0.1"), // shard 2
		netutil.MustParseAddr("10.0.0.1"),  // shard 0
		netutil.MustParseAddr("200.0.0.2"), // shard 2
		netutil.MustParseAddr("100.0.0.1"), // shard 1
		netutil.MustParseAddr("10.0.0.2"),  // shard 0
	}
	groups := m.Group(addrs)
	want := [][]int{{1, 4}, {3}, {0, 2}}
	for s := range want {
		if len(groups[s]) != len(want[s]) {
			t.Fatalf("shard %d group = %v, want %v", s, groups[s], want[s])
		}
		for k := range want[s] {
			if groups[s][k] != want[s][k] {
				t.Fatalf("shard %d group = %v, want %v", s, groups[s], want[s])
			}
		}
	}
}

func TestDeltaWireRoundTrip(t *testing.T) {
	d := bgp.Delta{Source: "view-3", Ops: []bgp.Op{
		{Kind: bgp.SourceBGP, Entry: bgp.Entry{
			Prefix: netutil.MustParsePrefix("12.65.128.0/19"), Description: "d",
			NextHop: "192.0.2.1", ASPath: []uint32{7018, 701}, PeerDesc: "peer",
		}},
		{Withdraw: true, Kind: bgp.SourceNetworkDump, Entry: bgp.Entry{Prefix: netutil.MustParsePrefix("24.0.0.0/8")}},
	}}
	w := EncodeDelta(17, d)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var w2 WireDelta
	if err := json.Unmarshal(data, &w2); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(w2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != d.Source || len(got.Ops) != len(d.Ops) {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range d.Ops {
		if got.Ops[i].Withdraw != d.Ops[i].Withdraw || got.Ops[i].Kind != d.Ops[i].Kind ||
			got.Ops[i].Entry.Prefix != d.Ops[i].Entry.Prefix ||
			got.Ops[i].Entry.NextHop != d.Ops[i].Entry.NextHop ||
			len(got.Ops[i].Entry.ASPath) != len(d.Ops[i].Entry.ASPath) {
			t.Fatalf("op %d = %+v, want %+v", i, got.Ops[i], d.Ops[i])
		}
	}

	if _, err := DecodeDelta(WireDelta{Seq: 1, Ops: []WireOp{{Prefix: "not-a-prefix"}}}); err == nil {
		t.Fatal("corrupt prefix decoded")
	}
	if _, err := DecodeDelta(WireDelta{Seq: 1, Ops: []WireOp{{Prefix: "10.0.0.0/8", Kind: 99}}}); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

// ParseMap decodes and validates a JSON shard map (the /shardmap body).
func ParseMap(data []byte) (*Map, error) {
	m := &Map{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("shard map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
