package sketch

import (
	"bytes"
	"math/rand"
	"testing"
)

// zipfStream draws n keys from a Zipf-shaped popularity over a key
// universe, returning the stream and the exact count per key. The
// shape matters: the sketch guarantees are trivial on uniform streams
// and are stressed exactly where the paper's workloads live, on
// heavy-tailed ones.
func zipfStream(seed int64, n int, universe uint64, s float64) ([]uint64, map[uint64]uint64) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, universe-1)
	stream := make([]uint64, n)
	truth := make(map[uint64]uint64, universe)
	for i := range stream {
		// Scramble the rank so key order carries no popularity signal.
		k := splitmix64(z.Uint64())
		stream[i] = k
		truth[k]++
	}
	return stream, truth
}

// TestCountMinNeverUndercounts is the core sketch invariant: for every
// key, under both update rules, the estimate is at least the true
// count — overestimate-only, with no exceptions, on every seed.
func TestCountMinNeverUndercounts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42, 1998} {
		for _, conservative := range []bool{false, true} {
			cm := NewCountMin(512, 4)
			stream, truth := zipfStream(seed, 20000, 4096, 1.3)
			for _, k := range stream {
				if conservative {
					cm.AddConservative(k, 1)
				} else {
					cm.Add(k, 1)
				}
			}
			if cm.Total() != uint64(len(stream)) {
				t.Fatalf("seed %d: total %d, want %d", seed, cm.Total(), len(stream))
			}
			for k, want := range truth {
				if got := cm.Estimate(k); got < want {
					t.Fatalf("seed %d conservative=%v: key %#x estimated %d < true %d",
						seed, conservative, k, got, want)
				}
			}
		}
	}
}

// TestCountMinErrorBound checks the ε·N accuracy claim empirically:
// the per-key overestimate stays within ErrorBound for (far) more than
// the 1-δ fraction of keys the theory promises. Conservative update
// must never be looser than plain update in aggregate.
func TestCountMinErrorBound(t *testing.T) {
	for _, seed := range []int64{7, 11, 13} {
		cm, err := NewCountMinError(0.01, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		stream, truth := zipfStream(seed, 50000, 1<<16, 1.2)
		for _, k := range stream {
			cm.AddConservative(k, 1)
		}
		bound := cm.ErrorBound()
		violations := 0
		for k, want := range truth {
			if cm.Estimate(k)-want > bound {
				violations++
			}
		}
		if frac := float64(violations) / float64(len(truth)); frac > 0.01 {
			t.Fatalf("seed %d: %.3f%% of keys exceed the ε·N=%d bound (δ=1%%)",
				seed, 100*frac, bound)
		}
	}
}

// TestCountMinWeightedAndUnseen covers weighted updates and the
// trivial-but-load-bearing unseen-key case.
func TestCountMinWeightedAndUnseen(t *testing.T) {
	cm := NewCountMin(256, 3)
	cm.Add(1, 10)
	cm.Add(2, 5)
	cm.AddConservative(1, 7)
	if got := cm.Estimate(1); got < 17 {
		t.Fatalf("estimate(1) = %d, want >= 17", got)
	}
	if cm.Total() != 22 {
		t.Fatalf("total = %d, want 22", cm.Total())
	}
	// An unseen key may collide into nonzero cells but must never make
	// the sketch report less than zero... i.e. this must not panic and
	// the bound must hold: estimate ≤ total.
	if got := cm.Estimate(0xdeadbeef); got > cm.Total() {
		t.Fatalf("unseen key estimate %d exceeds total %d", got, cm.Total())
	}
}

// TestCountMinMergeEqualsConcat is the mergeability law: for the plain
// update rule, merging the sketches of two streams is cell-for-cell
// identical to sketching the concatenated stream.
func TestCountMinMergeEqualsConcat(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		a := NewCountMin(512, 4)
		b := NewCountMin(512, 4)
		whole := NewCountMin(512, 4)
		sa, _ := zipfStream(seed, 15000, 4096, 1.25)
		sb, _ := zipfStream(seed+100, 12000, 4096, 1.4)
		for _, k := range sa {
			a.Add(k, 1)
			whole.Add(k, 1)
		}
		for _, k := range sb {
			b.Add(k, 1)
			whole.Add(k, 1)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if a.Total() != whole.Total() {
			t.Fatalf("seed %d: merged total %d != concat total %d", seed, a.Total(), whole.Total())
		}
		for i := range a.rows {
			if a.rows[i] != whole.rows[i] {
				t.Fatalf("seed %d: cell %d diverges: merged %d, concat %d",
					seed, i, a.rows[i], whole.rows[i])
			}
		}
	}
}

// TestCountMinConservativeMergeOverestimates: conservative-update
// sketches lose exact merge equality but must keep overestimate-only
// after merging.
func TestCountMinConservativeMergeOverestimates(t *testing.T) {
	a := NewCountMin(256, 4)
	b := NewCountMin(256, 4)
	sa, ta := zipfStream(21, 10000, 2048, 1.3)
	sb, tb := zipfStream(22, 10000, 2048, 1.3)
	for _, k := range sa {
		a.AddConservative(k, 1)
	}
	for _, k := range sb {
		b.AddConservative(k, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for k, want := range ta {
		want += tb[k]
		if got := a.Estimate(k); got < want {
			t.Fatalf("key %#x: merged estimate %d < combined true %d", k, got, want)
		}
	}
}

// TestCountMinMergeMismatchRejected: dimension-mismatched merges fail
// loudly — never panic, never silently misalign.
func TestCountMinMergeMismatchRejected(t *testing.T) {
	a := NewCountMin(256, 4)
	for _, o := range []*CountMin{NewCountMin(512, 4), NewCountMin(256, 5), nil} {
		if err := a.Merge(o); err == nil {
			t.Fatalf("merge with mismatched sketch %+v accepted", o)
		}
	}
}

// TestSpaceSavingTopKGuarantee: any key whose true count exceeds N/C
// must be monitored, and every monitored count must bracket its true
// count in [Count-Err, Count].
func TestSpaceSavingTopKGuarantee(t *testing.T) {
	for _, seed := range []int64{1, 9, 77} {
		const capacity = 64
		ss := NewSpaceSaving(capacity)
		stream, truth := zipfStream(seed, 40000, 1<<14, 1.15)
		for _, k := range stream {
			ss.Add(k, 1, 0)
		}
		if ss.Len() > capacity {
			t.Fatalf("summary grew to %d entries over capacity %d", ss.Len(), capacity)
		}
		n := ss.Total()
		if n != uint64(len(stream)) {
			t.Fatalf("total %d, want %d", n, len(stream))
		}
		threshold := n / capacity
		for k, want := range truth {
			e, ok := ss.Get(k)
			if want > threshold && !ok {
				t.Fatalf("seed %d: key %#x with true count %d > N/C=%d not monitored",
					seed, k, want, threshold)
			}
			if ok {
				if e.Count < want {
					t.Fatalf("seed %d: key %#x count %d < true %d", seed, k, e.Count, want)
				}
				if e.Count-e.Err > want {
					t.Fatalf("seed %d: key %#x lower bound %d > true %d",
						seed, k, e.Count-e.Err, want)
				}
			}
		}
	}
}

// TestSpaceSavingExactUntilEviction: while the summary is below
// capacity every count is exact (Err == 0), and byte weights ride
// along exactly.
func TestSpaceSavingExactUntilEviction(t *testing.T) {
	ss := NewSpaceSaving(8)
	for i := 0; i < 100; i++ {
		ss.Add(uint64(i%5), 1, uint64(10*(i%5)))
	}
	if ss.Evictions() != 0 {
		t.Fatalf("evictions %d below capacity", ss.Evictions())
	}
	for k := uint64(0); k < 5; k++ {
		e, ok := ss.Get(k)
		if !ok || e.Err != 0 || e.ByteErr != 0 {
			t.Fatalf("key %d: entry %+v, want exact", k, e)
		}
		if e.Count != 20 || e.Bytes != uint64(200*k) {
			t.Fatalf("key %d: count %d bytes %d, want 20/%d", k, e.Count, e.Bytes, 200*k)
		}
	}
	top := ss.Top(3)
	if len(top) != 3 {
		t.Fatalf("top(3) returned %d entries", len(top))
	}
	// Equal counts: ties break by ascending key.
	if top[0].Key != 0 || top[1].Key != 1 || top[2].Key != 2 {
		t.Fatalf("tie order wrong: %+v", top)
	}
}

// TestSpaceSavingMergePreservesGuarantee: after merging two summaries
// of disjoint stream halves, the combined N/C guarantee and count
// bracketing still hold.
func TestSpaceSavingMergePreservesGuarantee(t *testing.T) {
	for _, seed := range []int64{3, 31} {
		const capacity = 48
		a := NewSpaceSaving(capacity)
		b := NewSpaceSaving(capacity)
		sa, ta := zipfStream(seed, 30000, 1<<13, 1.2)
		sb, tb := zipfStream(seed+1000, 30000, 1<<13, 1.2)
		for _, k := range sa {
			a.Add(k, 1, 2)
		}
		for _, k := range sb {
			b.Add(k, 1, 2)
		}
		if _, err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if a.Len() > capacity {
			t.Fatalf("merged summary has %d entries over capacity", a.Len())
		}
		n := a.Total()
		if n != uint64(len(sa)+len(sb)) {
			t.Fatalf("merged total %d, want %d", n, len(sa)+len(sb))
		}
		threshold := n / capacity
		for k, want := range ta {
			want += tb[k]
			e, ok := a.Get(k)
			if want > threshold && !ok {
				t.Fatalf("seed %d: merged key %#x with count %d > N/C=%d missing",
					seed, k, want, threshold)
			}
			if ok && (e.Count < want || e.Count-e.Err > want) {
				t.Fatalf("seed %d: merged key %#x bracket [%d, %d] misses true %d",
					seed, k, e.Count-e.Err, e.Count, want)
			}
		}
	}
}

// TestSpaceSavingMergeMismatchRejected mirrors the count-min rule.
func TestSpaceSavingMergeMismatchRejected(t *testing.T) {
	a := NewSpaceSaving(16)
	if _, err := a.Merge(NewSpaceSaving(32)); err == nil {
		t.Fatal("capacity-mismatched merge accepted")
	}
	if _, err := a.Merge(nil); err == nil {
		t.Fatal("nil merge accepted")
	}
}

// TestSnapshotRoundTrip: marshal → unmarshal reproduces both sketches
// exactly, and the restored count-min still merges with its origin.
func TestSnapshotRoundTrip(t *testing.T) {
	cm := NewCountMin(128, 3)
	ss := NewSpaceSaving(32)
	stream, _ := zipfStream(17, 5000, 1024, 1.3)
	for _, k := range stream {
		cm.Add(k, 1)
		ss.Add(k, 1, 3)
	}
	cb, err := cm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cm2, err := UnmarshalCountMin(cb)
	if err != nil {
		t.Fatal(err)
	}
	if cm2.Total() != cm.Total() || !bytes.Equal(mustMarshal(t, cm2), cb) {
		t.Fatal("count-min round trip diverged")
	}
	if err := cm2.Merge(cm); err != nil {
		t.Fatalf("restored sketch refuses its origin: %v", err)
	}
	sb, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := UnmarshalSpaceSaving(sb)
	if err != nil {
		t.Fatal(err)
	}
	if ss2.Total() != ss.Total() || ss2.Len() != ss.Len() {
		t.Fatal("space-saving round trip diverged")
	}
	for _, e := range ss.Entries() {
		e2, ok := ss2.Get(e.Key)
		if !ok || e2 != e {
			t.Fatalf("entry %+v became %+v", e, e2)
		}
	}
}

// TestSnapshotRejectsCorruption: truncation, magic damage and
// dimension lies all fail decode without panicking.
func TestSnapshotRejectsCorruption(t *testing.T) {
	cm := NewCountMin(64, 2)
	cm.Add(1, 5)
	blob := mustMarshal(t, cm)
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-3] },    // truncated body
		func(b []byte) []byte { b[0] ^= 0xff; return b }, // wrong magic
		func(b []byte) []byte { b[4] = 3; return b },     // non-pow2 width
		func(b []byte) []byte { b[12] = 0; return b },    // zero depth
		func(b []byte) []byte { b[20] = 0; return b },    // total < row sums
		func(b []byte) []byte { return b[:10] },          // truncated header
	} {
		if _, err := UnmarshalCountMin(mutate(append([]byte(nil), blob...))); err == nil {
			t.Fatal("corrupted count-min snapshot accepted")
		}
	}
	ss := NewSpaceSaving(4)
	ss.Add(9, 3, 12)
	sblob, _ := ss.MarshalBinary()
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)-1] },
		func(b []byte) []byte { b[1] ^= 0xff; return b },
		func(b []byte) []byte { b[28] = 200; return b }, // entries > capacity
	} {
		if _, err := UnmarshalSpaceSaving(mutate(append([]byte(nil), sblob...))); err == nil {
			t.Fatal("corrupted space-saving snapshot accepted")
		}
	}
}

func mustMarshal(t *testing.T, c *CountMin) []byte {
	t.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCountMinCellsMatchRowSeed: the row seeds hashed once at
// construction (and again by UnmarshalCountMin and Clone) address
// exactly the cells the package-level rowSeed family names, at every
// depth a snapshot may carry, under both update rules — so snapshots
// and merges see the same cells they always did.
func TestCountMinCellsMatchRowSeed(t *testing.T) {
	const width = 64
	rng := rand.New(rand.NewSource(64))
	for depth := 1; depth <= 64; depth++ {
		plain, cons := NewCountMin(width, depth), NewCountMin(width, depth)
		wantPlain := make([]uint64, width*depth)
		wantCons := make([]uint64, width*depth)
		idx := make([]uint64, depth)
		for n := 0; n < 200; n++ {
			k, w := rng.Uint64()%97, uint64(1+rng.Intn(5))
			est := ^uint64(0)
			for i := range idx {
				idx[i] = uint64(i)*width + (splitmix64(k^rowSeed(i)) & (width - 1))
				wantPlain[idx[i]] += w
				est = min(est, wantCons[idx[i]])
			}
			est += w
			for _, j := range idx {
				wantCons[j] = max(wantCons[j], est)
			}
			plain.Add(k, w)
			if got := cons.AddConservative(k, w); got != est {
				t.Fatalf("depth %d: AddConservative returned %d, want %d", depth, got, est)
			}
		}
		for j := range wantPlain {
			if plain.rows[j] != wantPlain[j] || cons.rows[j] != wantCons[j] {
				t.Fatalf("depth %d cell %d: plain %d conservative %d, want %d and %d",
					depth, j, plain.rows[j], cons.rows[j], wantPlain[j], wantCons[j])
			}
		}
		restored, err := UnmarshalCountMin(mustMarshal(t, cons))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		for name, c := range map[string]*CountMin{"new": cons, "clone": cons.Clone(), "unmarshal": restored} {
			if len(c.seeds) != depth || len(c.cells) != depth {
				t.Fatalf("depth %d %s: %d seeds, %d scratch cells", depth, name, len(c.seeds), len(c.cells))
			}
			for i, seed := range c.seeds {
				if seed != rowSeed(i) {
					t.Fatalf("depth %d %s: row %d seed %#x, want %#x", depth, name, i, seed, rowSeed(i))
				}
			}
		}
	}
}

// TestCountMinAddConservativeAllocs: the update the spill path runs
// on every eviction allocates nothing, at the accumulator's default
// dimensions and at the deepest sketch a snapshot may carry.
func TestCountMinAddConservativeAllocs(t *testing.T) {
	def, err := NewCountMinError(1e-4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*CountMin{def, NewCountMin(64, 64)} {
		k := uint64(0)
		if n := testing.AllocsPerRun(1000, func() { k++; c.AddConservative(k, 3) }); n != 0 {
			t.Fatalf("%dx%d AddConservative: %v allocs/op, want 0", c.Width(), c.Depth(), n)
		}
	}
}
