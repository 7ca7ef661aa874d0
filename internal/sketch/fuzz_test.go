package sketch

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzSketchMerge drives the merge algebra and the snapshot decoders
// with fuzzed dimensions, streams and raw blobs:
//
//   - merge is commutative and associative for plain-update count-min
//     sketches of equal dimensions (cell-for-cell);
//   - dimension- and capacity-mismatched merges return errors, never
//     panic;
//   - arbitrary bytes fed to the snapshot decoders either fail loudly
//     or round-trip byte-identically and merge cleanly.
func FuzzSketchMerge(f *testing.F) {
	f.Add(uint8(6), uint8(3), uint8(7), uint8(2), int64(1), uint16(100), uint16(200), uint16(300), []byte{})
	f.Add(uint8(4), uint8(2), uint8(4), uint8(2), int64(9), uint16(50), uint16(0), uint16(17), []byte("nCM1"))
	seedCM := NewCountMin(32, 2)
	seedCM.Add(5, 3)
	seedBlob, _ := seedCM.MarshalBinary()
	f.Add(uint8(5), uint8(2), uint8(5), uint8(2), int64(3), uint16(10), uint16(10), uint16(10), seedBlob)
	seedSS := NewSpaceSaving(4)
	seedSS.Add(1, 2, 3)
	ssBlob, _ := seedSS.MarshalBinary()
	f.Add(uint8(3), uint8(1), uint8(6), uint8(4), int64(8), uint16(99), uint16(1), uint16(1000), ssBlob)

	f.Fuzz(func(t *testing.T, logW1, depth1, logW2, depth2 uint8, seed int64, nA, nB, nC uint16, raw []byte) {
		w1 := 1 << (logW1%10 + 1) // 2..1024
		d1 := int(depth1%6) + 1
		w2 := 1 << (logW2%10 + 1)
		d2 := int(depth2%6) + 1

		rng := rand.New(rand.NewSource(seed))
		mkStream := func(n uint16) []uint64 {
			s := make([]uint64, int(n)%2048)
			for i := range s {
				s[i] = rng.Uint64() % 512
			}
			return s
		}
		fill := func(w, d int, stream []uint64) *CountMin {
			c := NewCountMin(w, d)
			for _, k := range stream {
				c.Add(k, 1)
			}
			return c
		}
		sa, sb, sc := mkStream(nA), mkStream(nB), mkStream(nC)
		a, b, c := fill(w1, d1, sa), fill(w1, d1, sb), fill(w1, d1, sc)

		// Commutativity: a+b == b+a.
		ab := a.Clone()
		if err := ab.Merge(b); err != nil {
			t.Fatalf("equal-dimension merge failed: %v", err)
		}
		ba := b.Clone()
		if err := ba.Merge(a); err != nil {
			t.Fatalf("equal-dimension merge failed: %v", err)
		}
		if !bytes.Equal(mustBlob(t, ab), mustBlob(t, ba)) {
			t.Fatal("merge is not commutative")
		}

		// Associativity: (a+b)+c == a+(b+c).
		abc1 := ab.Clone()
		if err := abc1.Merge(c); err != nil {
			t.Fatal(err)
		}
		bc := b.Clone()
		if err := bc.Merge(c); err != nil {
			t.Fatal(err)
		}
		abc2 := a.Clone()
		if err := abc2.Merge(bc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustBlob(t, abc1), mustBlob(t, abc2)) {
			t.Fatal("merge is not associative")
		}

		// Mismatched dimensions: rejected loudly, never a panic, and the
		// receiver is left untouched.
		if w1 != w2 || d1 != d2 {
			other := NewCountMin(w2, d2)
			other.Add(1, 1)
			before := mustBlob(t, a)
			if err := a.Merge(other); err == nil {
				t.Fatalf("merge of %dx%d into %dx%d accepted", w2, d2, w1, d1)
			}
			if !bytes.Equal(before, mustBlob(t, a)) {
				t.Fatal("rejected merge mutated the receiver")
			}
		}

		// Space-saving: same algebra checks at the guarantee level.
		ssa := NewSpaceSaving(8)
		ssb := NewSpaceSaving(8)
		for _, k := range sa {
			ssa.Add(k, 1, k)
		}
		for _, k := range sb {
			ssb.Add(k, 1, k)
		}
		merged := ssa.Clone()
		if _, err := merged.Merge(ssb); err != nil {
			t.Fatalf("equal-capacity merge failed: %v", err)
		}
		if merged.Len() > merged.Capacity() {
			t.Fatalf("merged summary %d entries over capacity %d", merged.Len(), merged.Capacity())
		}
		if merged.Total() != ssa.Total()+ssb.Total() {
			t.Fatal("merged total diverged")
		}
		if _, err := ssa.Merge(NewSpaceSaving(9)); err == nil {
			t.Fatal("capacity-mismatched space-saving merge accepted")
		}

		// Snapshot decoders on raw fuzz bytes: no panics; an accepted
		// blob must round-trip byte-identically and merge cleanly with a
		// same-dimension peer.
		if cm, err := UnmarshalCountMin(raw); err == nil {
			again, err := cm.MarshalBinary()
			if err != nil || !bytes.Equal(again, raw) {
				t.Fatalf("accepted count-min snapshot does not round-trip (err %v)", err)
			}
			peer := NewCountMin(cm.Width(), cm.Depth())
			if err := peer.Merge(cm); err != nil {
				t.Fatalf("accepted snapshot refuses same-dimension merge: %v", err)
			}
		}
		if ss, err := UnmarshalSpaceSaving(raw); err == nil {
			again, err := ss.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted space-saving snapshot re-marshal failed: %v", err)
			}
			back, err := UnmarshalSpaceSaving(again)
			if err != nil || back.Len() != ss.Len() || back.Total() != ss.Total() {
				t.Fatalf("space-saving snapshot round trip diverged (err %v)", err)
			}
			peer := NewSpaceSaving(ss.Capacity())
			if _, err := peer.Merge(ss); err != nil {
				t.Fatalf("accepted snapshot refuses same-capacity merge: %v", err)
			}
		}
	})
}

func mustBlob(t *testing.T, c *CountMin) []byte {
	t.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
