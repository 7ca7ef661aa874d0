package weblog

import (
	"testing"
	"time"
)

// TestStreamGenDeterministic: the same seed yields the same record
// sequence — the property loadgen's deterministic replay mode and the
// firehose differential tests lean on.
func TestStreamGenDeterministic(t *testing.T) {
	world := testWorld(t)
	cfg := Nagano(0.01)
	a, err := NewStreamGen(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStreamGen(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("record %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestStreamGenShape: records are well-formed (positive sizes,
// monotone timestamps, clients from the synthesized population) and
// the popularity is skewed — a heavy-tailed stream, not uniform.
func TestStreamGenShape(t *testing.T) {
	world := testWorld(t)
	cfg := Apache(0.01)
	g, err := NewStreamGen(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumClients() == 0 {
		t.Fatal("no clients synthesized")
	}
	counts := make(map[uint32]int)
	last := time.Time{}
	const n = 20000
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Size <= 0 {
			t.Fatalf("record %d has size %d", i, r.Size)
		}
		if r.Time.Before(last) {
			t.Fatalf("record %d goes back in time: %v < %v", i, r.Time, last)
		}
		last = r.Time
		if r.Client.IsUnspecified() {
			t.Fatalf("record %d from the unspecified address", i)
		}
		counts[uint32(r.Client)]++
	}
	// Heavy tail: the busiest 10% of observed clients should carry well
	// over their uniform share of requests.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if uniform := n / len(counts); max < 4*uniform {
		t.Fatalf("popularity looks uniform: max client %d requests vs uniform share %d", max, uniform)
	}
}

// TestStreamGenValidates: invalid profiles are rejected up front.
func TestStreamGenValidates(t *testing.T) {
	world := testWorld(t)
	bad := Nagano(0.01)
	bad.NumRequests = 0
	if _, err := NewStreamGen(world, bad); err == nil {
		t.Fatal("zero-request profile accepted")
	}
	huge := Nagano(0.01)
	huge.NumNetworks = len(world.Networks) + 1
	huge.NumClients = huge.NumNetworks * 2
	if _, err := NewStreamGen(world, huge); err == nil {
		t.Fatal("profile wanting more networks than the world has accepted")
	}
}
