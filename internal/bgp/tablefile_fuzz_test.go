package bgp

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

// fuzzSeedTable builds a small but fully featured snapshot: both source
// classes, a shared prefix, a default route, multi-source provenance.
func fuzzSeedTable() []byte {
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "10.0.0.0/8", "12.65.128.0/19"))
	m.Add(snap("MAE", SourceBGP, "12.65.128.0/19"))
	m.Add(snap("ARIN", SourceNetworkDump, "10.0.0.0/8", "0.0.0.0/0"))
	data, err := MarshalTable(m.Compile())
	if err != nil {
		panic(err)
	}
	return data
}

// FuzzReadTable hammers the snapshot loader: truncated, bit-flipped,
// version-skewed or wholly synthetic inputs must produce a clean error —
// never a panic, never an over-read. Anything the loader does accept
// must behave as a table: lookups on probe addresses cannot fault, and
// the accepted table must survive a marshal round trip.
func FuzzReadTable(f *testing.F) {
	seed := fuzzSeedTable()
	f.Add(seed)
	f.Add(seed[:0])
	f.Add(seed[:7])
	f.Add(seed[:tableHeaderLen-1])
	f.Add(seed[:tableHeaderLen])
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	for _, i := range []int{0, 8, 16, 20, 24, 32, 72, tableHeaderLen, len(seed) - 1} {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	verskew := append([]byte(nil), seed...)
	verskew[8] = 2
	f.Add(verskew)
	f.Add([]byte("NCTABLE\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadTable(data)
		if err != nil {
			return
		}
		// Accepted: the table must be fully usable.
		for _, ip := range []string{"10.1.2.3", "12.65.147.94", "255.255.255.255", "0.0.0.0"} {
			a := netutil.MustParseAddr(ip)
			if m, ok := c.Lookup(a); ok && m.Prefix.IsZero() {
				t.Fatalf("Lookup(%s) returned ok with zero prefix", ip)
			}
			c.Provenance(netutil.PrefixFrom(a, 32))
		}
		if _, err := MarshalTable(c); err != nil {
			t.Fatalf("accepted table failed to marshal: %v", err)
		}
	})
}

// TestReadTableResealedFlips covers what FuzzReadTable cannot reach:
// checksum-valid but malformed bodies. Every mutation the fuzzer makes
// dies at a CRC, so here each single-byte flip of the seed table (by
// 0xff, 0x01, 0x80 and 0x10) has both checksums recomputed before it is
// loaded. A resealed table must be rejected or behave as a table: no
// lookup faults, LookupBatch answers as Lookup does, and it marshals.
func TestReadTableResealedFlips(t *testing.T) {
	seed := fuzzSeedTable()
	var probes []netutil.Addr
	for _, ip := range []string{"0.0.0.0", "10.1.2.3", "10.255.255.255", "12.65.128.0",
		"12.65.147.94", "12.65.159.255", "24.48.2.1", "127.0.0.1", "255.255.255.255"} {
		probes = append(probes, netutil.MustParseAddr(ip))
	}
	le := binary.LittleEndian
	accepted := 0
	for i := range seed {
		for _, mask := range []byte{0xff, 0x01, 0x80, 0x10} {
			mut := append([]byte(nil), seed...)
			mut[i] ^= mask
			le.PutUint32(mut[24:], crc32.Checksum(mut[tableHeaderLen:], crcTable))
			le.PutUint32(mut[20:], 0)
			le.PutUint32(mut[20:], crc32.Checksum(mut[:tableHeaderLen], crcTable))
			c, err := ReadTable(mut)
			if err != nil {
				continue
			}
			accepted++
			batch := c.LookupBatch(probes, nil)
			for j, a := range probes {
				m, ok := c.Lookup(a)
				if ok && m.Prefix.IsZero() {
					t.Fatalf("byte %d ^%#x: Lookup(%v) returned ok with the zero prefix", i, mask, a)
				}
				if !ok {
					m = Match{}
				}
				if batch[j] != m {
					t.Fatalf("byte %d ^%#x: LookupBatch(%v) = %+v, Lookup = %+v", i, mask, a, batch[j], m)
				}
			}
			if _, err := MarshalTable(c); err != nil {
				t.Fatalf("byte %d ^%#x: accepted table failed to marshal: %v", i, mask, err)
			}
		}
	}
	t.Logf("%d bytes × 4 flips: %d resealed tables accepted", len(seed), accepted)
}
