// Package faultnet is a deterministic fault-injection substrate for the
// networked service: a net.Conn wrapper that delays, truncates, corrupts
// and resets traffic according to a seeded per-direction Profile.
//
// The router tests put Injector.Conn behind shard.RouterConfig.Dial to
// prove that a damaged router↔node stream degrades a batch explicitly and
// never yields a wrong prefix. Nothing touches kernel queueing
// disciplines.
//
// Determinism: all random decisions come from one seeded rng guarded by a
// mutex, so a single-goroutine driver replays identically for a given
// Profile.Seed. Under concurrency the interleaving (not the marginal
// rates) varies, which is exactly the reproducibility a fault test
// needs.
package faultnet

import (
	"math/rand"
	"sync"
	"time"
)

// Faults is one direction's fault rates. All probabilities are in [0,1]
// and are evaluated independently per operation.
type Faults struct {
	// Drop is a lost segment. The transport would retransmit it, so a
	// drop manifests as an extra retransmission delay of 3×Latency.
	Drop float64
	// Corrupt flips bits in the payload; checksummed real networks
	// deliver such damage rarely, but a resilient decoder must survive it.
	Corrupt float64
	// Truncate delivers only a prefix of the payload, then closes the
	// connection (premature EOF).
	Truncate float64
	// Reset tears the connection down mid-operation.
	Reset float64
	// Latency delays every operation by Latency plus a uniform extra in
	// [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
}

// Profile describes both directions of a faulty path plus the rng seed.
// Inbound applies to traffic arriving at the wrapped endpoint (reads and
// responses), Outbound to traffic it emits (writes and requests).
type Profile struct {
	Seed     int64
	Inbound  Faults
	Outbound Faults
}

// Stats counts injected faults, so a run can prove faults actually
// fired.
type Stats struct {
	Ops       int64 // operations that passed through a wrapper
	Drops     int64
	Corrupts  int64
	Truncates int64
	Resets    int64
	Delays    int64 // operations that incurred injected latency
}

// Total returns the number of injected fault events (delays included).
func (s Stats) Total() int64 {
	return s.Drops + s.Corrupts + s.Truncates + s.Resets + s.Delays
}

// Injector owns the seeded rng and counters for one Profile and hands out
// wrapped transports. One Injector may wrap any number of conns.
type Injector struct {
	prof Profile

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// New returns an injector for the profile.
func New(p Profile) *Injector {
	return &Injector{
		prof: p,
		rng:  rand.New(rand.NewSource(p.Seed)),
	}
}

// SetProfile replaces the fault profile on a live injector — the router
// tests use it to degrade a pooled connection between two exchanges. The
// rng stream and fault counters carry across the swap.
func (i *Injector) SetProfile(p Profile) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.prof = p
}

// inbound and outbound read one direction's faults under the lock, so
// wrappers observe SetProfile swaps without racing them.
func (i *Injector) inbound() Faults {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.prof.Inbound
}

func (i *Injector) outbound() Faults {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.prof.Outbound
}

// Stats returns a snapshot of the fault counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// roll draws one Bernoulli decision under the injector lock.
func (i *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return p >= 1 || i.rng.Float64() < p
}

// countOp records one wrapped operation.
func (i *Injector) countOp() {
	i.mu.Lock()
	i.stats.Ops++
	i.mu.Unlock()
}

func (i *Injector) count(c *int64) {
	i.mu.Lock()
	*c++
	i.mu.Unlock()
}

// latency draws this operation's injected delay (0 when none applies).
func (i *Injector) latency(f Faults) time.Duration {
	if f.Latency <= 0 && f.Jitter <= 0 {
		return 0
	}
	d := f.Latency
	if f.Jitter > 0 {
		i.mu.Lock()
		d += time.Duration(i.rng.Int63n(int64(f.Jitter)))
		i.mu.Unlock()
	}
	return d
}

// delaySync sleeps this operation's injected latency in place.
func (i *Injector) delaySync(f Faults) {
	if d := i.latency(f); d > 0 {
		i.count(&i.stats.Delays)
		time.Sleep(d)
	}
}

// corrupt flips one bit per 64 bytes (at least one) of b in place.
func (i *Injector) corrupt(b []byte) {
	if len(b) == 0 {
		return
	}
	i.count(&i.stats.Corrupts)
	i.mu.Lock()
	defer i.mu.Unlock()
	flips := len(b)/64 + 1
	for f := 0; f < flips; f++ {
		pos := i.rng.Intn(len(b))
		bit := byte(1) << uint(i.rng.Intn(8))
		b[pos] ^= bit
	}
}

// truncLen picks the truncated prefix length for an n-byte payload:
// at least 1 byte and strictly less than n (for n > 1).
func (i *Injector) truncLen(n int) int {
	if n <= 1 {
		return n
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return 1 + i.rng.Intn(n-1)
}
