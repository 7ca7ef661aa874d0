package bgp

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

// boundaryProbes returns the decision-flipping address set for a merged
// table: first/last (±1) of every /0–/32 enclosing block of every
// stored prefix — the same family the radix property tests use.
func boundaryProbes(m *Merged) []netutil.Addr {
	var probes []netutil.Addr
	seen := make(map[netutil.Addr]struct{})
	add := func(a netutil.Addr) {
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			probes = append(probes, a)
		}
	}
	m.Walk(func(p netutil.Prefix, _ *Provenance) bool {
		for bits := 0; bits <= 32; bits++ {
			q := netutil.PrefixFrom(p.Addr()&netutil.Addr(netutil.MaskOf(bits)), bits)
			add(q.First())
			add(q.Last())
			add(q.First() - 1)
			add(q.Last() + 1)
		}
		return true
	})
	return probes
}

// requireTableEquivalent asserts got answers every lookup, provenance
// and kind query identically to want, probing every boundary address.
func requireTableEquivalent(t *testing.T, m *Merged, want, got *Compiled) {
	t.Helper()
	if got.Len() != want.Len() || got.NumPrimary() != want.NumPrimary() ||
		got.NumSecondary() != want.NumSecondary() || got.NumNodes() != want.NumNodes() {
		t.Fatalf("shape: got %d/%d/%d nodes=%d, want %d/%d/%d nodes=%d",
			got.Len(), got.NumPrimary(), got.NumSecondary(), got.NumNodes(),
			want.Len(), want.NumPrimary(), want.NumSecondary(), want.NumNodes())
	}
	for _, a := range boundaryProbes(m) {
		wm, wok := want.Lookup(a)
		gm, gok := got.Lookup(a)
		if wok != gok || wm != gm {
			t.Fatalf("Lookup(%v): loaded (%+v,%v), fresh (%+v,%v)", a, gm, gok, wm, wok)
		}
	}
	m.Walk(func(p netutil.Prefix, _ *Provenance) bool {
		wp, wok := want.Provenance(p)
		gp, gok := got.Provenance(p)
		if wok != gok {
			t.Fatalf("Provenance(%v): loaded ok=%v, fresh ok=%v", p, gok, wok)
		}
		if wok && !reflect.DeepEqual(*wp, *gp) {
			t.Fatalf("Provenance(%v): loaded %+v, fresh %+v", p, *gp, *wp)
		}
		wk, wkok := want.KindOf(p)
		gk, gkok := got.KindOf(p)
		if wkok != gkok || wk != gk {
			t.Fatalf("KindOf(%v): loaded (%v,%v), fresh (%v,%v)", p, gk, gkok, wk, wkok)
		}
		return true
	})
}

func randomMerged(rng *rand.Rand, n int) *Merged {
	m := NewMerged()
	primary := &Snapshot{Name: "P", Kind: SourceBGP}
	alt := &Snapshot{Name: "P2", Kind: SourceBGP}
	secondary := &Snapshot{Name: "S", Kind: SourceNetworkDump}
	for i := 0; i < n; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), rng.Intn(33))
		e := Entry{Prefix: p, ASPath: []uint32{uint32(rng.Intn(65000) + 1)}}
		primary.Entries = append(primary.Entries, e)
		if rng.Intn(3) == 0 {
			alt.Entries = append(alt.Entries, e)
		}
		if rng.Intn(4) == 0 {
			secondary.Entries = append(secondary.Entries, Entry{Prefix: p})
		}
	}
	for i := 0; i < n; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), rng.Intn(33))
		secondary.Entries = append(secondary.Entries, Entry{Prefix: p})
	}
	m.Add(primary)
	m.Add(alt)
	m.Add(secondary)
	return m
}

// TestTableRoundTripProperty is the snapshot codec's equivalence
// property: marshal → load (both loaders) must yield a table that
// answers identically to the in-memory original on every /0–/32
// boundary address, and with identical provenance for every prefix.
func TestTableRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 3; trial++ {
		m := randomMerged(rng, 500+rng.Intn(1500))
		c := m.Compile()
		data, err := MarshalTable(c)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}

		loaded, err := ReadTable(data)
		if err != nil {
			t.Fatalf("trial %d: ReadTable: %v", trial, err)
		}
		requireTableEquivalent(t, m, c, loaded)

		path := filepath.Join(t.TempDir(), "table.nct")
		if err := SaveTable(path, c); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		tf, err := OpenTable(path)
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		requireTableEquivalent(t, m, c, tf.Table())

		// A loaded table must marshal back to the identical bytes: the
		// format has exactly one encoding of a given table.
		again, err := MarshalTable(tf.Table())
		if err != nil {
			t.Fatalf("trial %d: re-marshal: %v", trial, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("trial %d: re-marshal of loaded table differs (%d vs %d bytes)", trial, len(data), len(again))
		}
		if err := tf.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
	}
}

// TestTableRoundTripIncremental saves every generation the incremental
// compiler publishes over a churn run — path copies of the shared block
// arena and full re-renders alike, dead rows and all — and checks each
// loaded table freezes the same point-in-time view: lookups, node count,
// provenance and kind of every prefix the run touched, and the identical
// bytes when marshaled again.
func TestTableRoundTripIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMerged(rng, 800)
	inc := NewIncremental(m)
	probes := boundaryProbes(m)
	for i := 0; i < 5000; i++ {
		probes = append(probes, netutil.Addr(rng.Uint32()))
	}
	var touched []netutil.Prefix
	m.Walk(func(p netutil.Prefix, _ *Provenance) bool {
		touched = append(touched, p)
		return true
	})
	for i := 0; i < 20; i++ {
		d := Delta{Source: "churn"}
		for j := 0; j < 50; j++ {
			p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), 8+rng.Intn(25))
			d.Ops = append(d.Ops, Op{
				Withdraw: rng.Intn(3) == 0,
				Kind:     SourceBGP,
				Entry:    Entry{Prefix: p, ASPath: []uint32{77}},
			})
			touched = append(touched, p)
		}
		gen := inc.Apply(d)

		data, err := MarshalTable(gen)
		if err != nil {
			t.Fatalf("generation %d: marshal: %v", i, err)
		}
		loaded, err := ReadTable(data)
		if err != nil {
			t.Fatalf("generation %d: load: %v", i, err)
		}
		if loaded.Len() != gen.Len() || loaded.NumNodes() != gen.NumNodes() {
			t.Fatalf("generation %d: loaded Len %d nodes %d, generation Len %d nodes %d",
				i, loaded.Len(), loaded.NumNodes(), gen.Len(), gen.NumNodes())
		}
		for _, a := range probes {
			wm, wok := gen.Lookup(a)
			gm, gok := loaded.Lookup(a)
			if wok != gok || wm != gm {
				t.Fatalf("generation %d: Lookup(%v): loaded (%+v,%v), generation (%+v,%v)", i, a, gm, gok, wm, wok)
			}
		}
		// Provenance of an incremental generation is the compiler's live
		// store, which is this generation's until the next Apply.
		for _, p := range touched {
			wp, wok := gen.Provenance(p)
			gp, gok := loaded.Provenance(p)
			if wok != gok || (wok && !reflect.DeepEqual(*wp, *gp)) {
				t.Fatalf("generation %d: Provenance(%v): loaded (%+v,%v), generation (%+v,%v)", i, p, gp, gok, wp, wok)
			}
			wk, wkok := gen.KindOf(p)
			gk, gkok := loaded.KindOf(p)
			if wkok != gkok || wk != gk {
				t.Fatalf("generation %d: KindOf(%v): loaded (%v,%v), generation (%v,%v)", i, p, gk, gkok, wk, wkok)
			}
		}
		again, err := MarshalTable(loaded)
		if err != nil {
			t.Fatalf("generation %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("generation %d: re-marshal of loaded table differs (%d vs %d bytes)", i, len(data), len(again))
		}
	}
}

// TestCompiledLookupBatch checks the public batch API end to end: exact
// agreement with Lookup including the zero-Match miss convention, and
// zero allocations on the reuse path.
func TestCompiledLookupBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randomMerged(rng, 1200)
	c := m.Compile()
	probes := boundaryProbes(m)
	for i := 0; i < 10000; i++ {
		probes = append(probes, netutil.Addr(rng.Uint32()))
	}

	dst := c.LookupBatch(probes, nil)
	for i, a := range probes {
		wm, wok := c.Lookup(a)
		if !wok {
			if !dst[i].Prefix.IsZero() {
				t.Fatalf("probe %v: batch %+v, sequential miss", a, dst[i])
			}
			continue
		}
		if dst[i] != wm {
			t.Fatalf("probe %v: batch %+v, sequential %+v", a, dst[i], wm)
		}
	}

	if raceEnabled {
		// The race detector randomly drops sync.Pool items, so the
		// zero-allocation contract cannot be asserted under -race.
		return
	}
	allocs := testing.AllocsPerRun(10, func() {
		dst = c.LookupBatch(probes, dst)
	})
	if allocs != 0 {
		t.Fatalf("reuse path allocated %.1f times per batch, want 0", allocs)
	}
}

// TestTableCorruptionRejected flips, truncates and version-skews a valid
// snapshot and demands a clean error from both loaders every time.
func TestTableCorruptionRejected(t *testing.T) {
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "10.0.0.0/8", "12.65.128.0/19", "24.48.2.0/23"))
	m.Add(snap("ARIN", SourceNetworkDump, "12.0.0.0/8", "0.0.0.0/0"))
	c := m.Compile()
	data, err := MarshalTable(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTable(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	dir := t.TempDir()
	tryOpen := func(name string, mut []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if tf, err := OpenTable(path); err == nil {
			// The mmap path skips the body CRC by design, so a flipped
			// body byte may load — but only into a structurally valid
			// table that cannot panic. Exercise it.
			tf.Table().Lookup(netutil.MustParseAddr("12.65.147.94"))
			tf.Close()
		}
	}

	// Truncations at every interesting boundary.
	for _, n := range []int{0, 7, 8, tableHeaderLen - 1, tableHeaderLen, len(data) / 2, len(data) - 1} {
		if _, err := ReadTable(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		tryOpen("trunc.nct", data[:n])
	}
	// Every header byte flipped, one at a time: must never panic, and
	// flips inside the checksummed region must be rejected.
	for i := 0; i < tableHeaderLen; i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := ReadTable(mut); err == nil {
			t.Fatalf("header flip at %d accepted", i)
		}
		tryOpen("hdrflip.nct", mut)
	}
	// A sampling of body flips: the strict loader must catch all of them
	// via the body CRC.
	for i := tableHeaderLen; i < len(data); i += 97 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := ReadTable(mut); err == nil {
			t.Fatalf("body flip at %d accepted by strict loader", i)
		}
		tryOpen("bodyflip.nct", mut)
	}
	// Version skew with a recomputed checksum: rejected by the version
	// check itself, not the CRC.
	mut := append([]byte(nil), data...)
	mut[8] = 2
	if _, err := ReadTable(mut); err == nil {
		t.Fatal("version-skewed snapshot accepted")
	}
}

// TestSaveTableAtomic checks the crash-safety contract: saving over an
// existing snapshot either leaves the old bytes or the new, never a
// blend, and the temp file is cleaned up.
func TestSaveTableAtomic(t *testing.T) {
	m := NewMerged()
	m.Add(snap("A", SourceBGP, "10.0.0.0/8"))
	c := m.Compile()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.nct")
	if err := SaveTable(path, c); err != nil {
		t.Fatal(err)
	}
	if err := SaveTable(path, c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after save: %v", entries)
	}
	if _, err := OpenTable(path); err != nil {
		t.Fatalf("saved table unreadable: %v", err)
	}
}
