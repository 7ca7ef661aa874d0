// Package obsv is the zero-dependency observability substrate for the
// clustering pipeline: atomic counters and gauges, log2-bucketed
// histograms, named spans with wall-time and allocation deltas, and a
// process-wide registry whose Snapshot is deterministic and exports as
// JSON and expvar.
//
// The package exists because the paper's methodology is measured in
// exactly these quantities — fraction of clients clustered, validation
// hit-rates, cache hit ratios, lookup latencies — and a production
// deployment needs them as live counters rather than one-shot experiment
// printouts. Design constraints, in order:
//
//  1. Hot paths pay nothing they can observe. A Counter.Add is one
//     uncontended atomic add; Histogram.Observe is two. Neither
//     allocates. Packages on per-record hot loops (the CLF fast path,
//     the parallel clustering workers) accumulate plain local integers
//     and flush once per stream/chunk, so the steady-state cost is a
//     register increment. The budget — instrumentation ≤1% of the
//     committed BENCH_clustering.json numbers — is enforced by
//     TestInstrumentationOverheadBudget at the repo root.
//  2. Safe under -race with unlimited concurrent writers and readers.
//  3. Zero dependencies outside the standard library.
//
// Metric names are dotted paths ("cluster.parallel.records"); the
// registry keeps one flat namespace per kind. Snapshot() returns sorted,
// JSON-stable maps so committed snapshots diff cleanly.
package obsv

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n and returns the new value.
func (c *Counter) Add(n uint64) uint64 { return c.v.Add(n) }

// Inc increments the counter by one and returns the new value — callers
// use the return for cheap modular sampling ("every 64th event").
func (c *Counter) Inc() uint64 { return c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous atomic value (last-set or accumulated).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Registry is a named collection of metrics. Metric handles are
// get-or-create: the first Counter("x") allocates, later calls return
// the same counter, so packages resolve handles once at init and hot
// paths never touch the registry lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanMetrics // by trace span name; see trace.go

	// ring, when set, receives every completed trace span started from
	// this registry (the flight recorder). See ring.go and trace.go.
	ring atomic.Pointer[Ring]
}

// SetRing wires a flight recorder into the registry; nil detaches it.
// The Default registry is wired to DefaultRing at init.
func (r *Registry) SetRing(ring *Ring) { r.ring.Store(ring) }

// Ring returns the registry's flight recorder, or nil.
func (r *Registry) Ring() *Ring { return r.ring.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*spanMetrics),
	}
}

// Default is the process-wide registry every instrumented package uses.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric (handles stay valid). Tests and
// per-run reporting use it to scope counters to a window.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Snapshot is a point-in-time copy of a registry. Map keys marshal
// sorted, so two snapshots of identical state produce identical JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value. Values are read with
// atomic loads but not as one transaction: a snapshot taken while
// writers run is per-metric consistent, which is what an operational
// poll needs.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Package-level shorthands on the Default registry; instrumented
// packages resolve these once into vars at init.

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// TakeSnapshot snapshots the Default registry.
func TakeSnapshot() Snapshot { return Default.Snapshot() }
