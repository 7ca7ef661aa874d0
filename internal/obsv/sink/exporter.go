package sink

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/retry"
)

// Config tunes one exporter. The zero value gets sane defaults from
// normalize: 5 s interval, 64 in-memory batches, an 8 MiB WAL loss
// budget, fsync-per-batch, a 3-attempt backoff policy and a 3-strike /
// 5 s-cooldown breaker.
type Config struct {
	// Interval between collection ticks.
	Interval time.Duration
	// QueueCap bounds how many unacknowledged batch payloads stay in
	// memory; beyond it the oldest payloads are evicted (the WAL retains
	// them and Reload refills on demand).
	QueueCap int
	// BudgetBytes is the loss budget: when the unacknowledged backlog
	// exceeds it, the oldest batches are dropped and counted on
	// sink.dropped.*. <0 disables the budget.
	BudgetBytes int64
	// HighWater is the unacked-batch depth above which the exporter
	// reports unhealthy (readiness turns false). 0 means QueueCap.
	HighWater int
	// SkipFsync skips the per-batch WAL fsync (crash window widens to
	// the OS flush; throughput-sensitive deployments may prefer it).
	SkipFsync bool
	// Policy overrides the delivery retry policy.
	Policy *retry.Policy
	// Breaker overrides the delivery circuit breaker.
	Breaker *retry.Breaker
	// Registry is the metric source (nil = obsv.Default).
	Registry *obsv.Registry
	// Snapshot overrides the collection source: when set, each tick
	// diffs this function's result instead of Registry.Snapshot().
	Snapshot func() obsv.Snapshot
	// Now is the batch timestamp clock, overridable in tests.
	Now func() time.Time
	// Logf receives operational warnings (nil = discarded).
	Logf func(format string, args ...any)
}

func (c Config) normalized() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.BudgetBytes == 0 {
		c.BudgetBytes = 8 << 20
	}
	if c.HighWater <= 0 {
		c.HighWater = c.QueueCap
	}
	if c.Policy == nil {
		p := retry.Policy{
			MaxAttempts: 3,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    2 * time.Second,
			Jitter:      0.5,
			PerAttempt:  5 * time.Second,
			SpanName:    "sink.export.attempt",
		}
		c.Policy = &p
	}
	if c.Policy.Classify == nil {
		c.Policy.Classify = func(err error) retry.Class {
			if IsFatal(err) {
				return retry.Fatal
			}
			return retry.Transient
		}
	}
	if c.Breaker == nil {
		c.Breaker = retry.NewBreaker(3, 5*time.Second)
	}
	if c.Registry == nil {
		c.Registry = obsv.Default
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// entry is one unacknowledged batch. batch is nil when the payload was
// evicted from memory under queue pressure; the WAL still holds it.
type entry struct {
	seq   uint64
	size  int64
	batch *Batch
}

// Exporter owns one sink's full export path: the delta collector, the
// bounded in-memory queue, the WAL, and the delivery loop with retry +
// breaker. All delivery work happens on the exporter's own goroutine (or
// a caller inside Flush/Close) — the instrumented pipeline never blocks
// on it.
type Exporter struct {
	sink  Sink
	wal   *WAL
	cfg   Config
	delta *DeltaState

	// opMu serializes collect/drain cycles between the loop goroutine
	// and explicit CollectNow/Flush callers.
	opMu sync.Mutex

	mu           sync.Mutex
	entries      []entry
	inMem        int
	unackedBytes int64
	seq          uint64
	lastWALBytes int64
	lastErr      error

	intervalNs atomic.Int64
	kick       chan struct{}
	stop       chan struct{}
	done       chan struct{}
	stopOnce   sync.Once
}

// NewExporter opens (or recovers) the WAL at walPath and starts the
// export loop for s. Unacknowledged batches found in the WAL — a
// previous process's unsent backlog — are queued for redelivery ahead of
// new collections.
func NewExporter(s Sink, walPath string, cfg Config) (*Exporter, error) {
	cfg = cfg.normalized()
	wal, recovered, maxSeq, err := OpenWAL(walPath, !cfg.SkipFsync)
	if err != nil {
		return nil, err
	}
	e := &Exporter{
		sink:  s,
		wal:   wal,
		cfg:   cfg,
		delta: NewDeltaState(),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		seq:   maxSeq,
	}
	e.intervalNs.Store(int64(cfg.Interval))
	for _, b := range recovered {
		b := b
		ent := entry{seq: b.Seq, size: approxBatchSize(b), batch: &b}
		if e.inMem >= cfg.QueueCap {
			ent.batch = nil
		} else {
			e.inMem++
		}
		e.entries = append(e.entries, ent)
		e.unackedBytes += ent.size
	}
	if n := len(recovered); n > 0 {
		mReplayed.Add(uint64(n))
		mQueueDepth.Add(int64(n))
		cfg.Logf("sink %s: recovered %d unacknowledged batch(es) from %s", s.Name(), n, walPath)
	}
	e.syncWALGauge()
	go e.loop()
	return e, nil
}

// approxBatchSize estimates a recovered batch's WAL footprint without
// re-marshaling exactly (16 bytes/sample of JSON framing is close enough
// for budget accounting).
func approxBatchSize(b Batch) int64 {
	n := int64(64)
	for _, s := range b.Samples {
		n += int64(len(s.Name)) + 48
	}
	return n
}

// Name returns the underlying sink's name.
func (e *Exporter) Name() string { return e.sink.Name() }

// Sink returns the underlying sink (the manager retargets endpoints
// through it).
func (e *Exporter) Sink() Sink { return e.sink }

// Depth returns the number of unacknowledged batches (memory + WAL).
func (e *Exporter) Depth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.entries)
}

// Healthy reports whether the backlog is at or below the high-water mark.
func (e *Exporter) Healthy() bool { return e.Depth() <= e.cfg.HighWater }

// LastError returns the most recent delivery failure (nil after a
// success), for readiness detail.
func (e *Exporter) LastError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// BreakerState reports the delivery breaker position.
func (e *Exporter) BreakerState() string { return e.cfg.Breaker.State() }

// SetInterval retargets the collection cadence without disturbing the
// queue; the change takes effect on the next tick.
func (e *Exporter) SetInterval(d time.Duration) {
	if d <= 0 {
		d = 5 * time.Second
	}
	e.intervalNs.Store(int64(d))
	e.Kick()
}

// Interval returns the current collection cadence.
func (e *Exporter) Interval() time.Duration { return time.Duration(e.intervalNs.Load()) }

// Kick nudges the loop to run a collect+drain cycle now.
func (e *Exporter) Kick() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

func (e *Exporter) loop() {
	defer close(e.done)
	t := time.NewTimer(e.Interval())
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		case <-e.kick:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
		}
		e.opMu.Lock()
		e.collect()
		e.drain(context.Background())
		e.opMu.Unlock()
		t.Reset(e.Interval())
	}
}

// CollectNow synchronously snapshots the registry and durably enqueues
// the delta batch (if any) without attempting delivery. The drain phase
// of shutdown and the chaos tests use it to pin down exactly which
// increments are on the wire.
func (e *Exporter) CollectNow() {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	e.collect()
}

// collect diffs the snapshot source (Config.Snapshot, default the
// registry) and appends the resulting batch to the WAL and the
// in-memory queue. Requires opMu.
func (e *Exporter) collect() {
	snap := e.cfg.Registry.Snapshot
	if e.cfg.Snapshot != nil {
		snap = e.cfg.Snapshot
	}
	samples := e.delta.Collect(snap())
	if len(samples) == 0 {
		return
	}
	e.mu.Lock()
	e.seq++
	b := Batch{Seq: e.seq, UnixMs: e.cfg.Now().UnixMilli(), Samples: samples}
	e.mu.Unlock()

	size, err := e.wal.AppendBatch(b)
	if err != nil {
		// Degraded: the batch lives only in memory now. Keep exporting —
		// losing durability is better than losing the export path.
		e.cfg.Logf("sink %s: WAL append: %v", e.sink.Name(), err)
		size = approxBatchSize(b)
	}

	e.mu.Lock()
	ent := entry{seq: b.Seq, size: size, batch: &b}
	e.entries = append(e.entries, ent)
	e.inMem++
	e.unackedBytes += size
	mQueueDepth.Add(1)
	// Evict payloads beyond the in-memory cap (oldest first; the WAL
	// keeps the bytes).
	for i := 0; e.inMem > e.cfg.QueueCap && i < len(e.entries); i++ {
		if e.entries[i].batch != nil {
			e.entries[i].batch = nil
			e.inMem--
		}
	}
	// Enforce the loss budget: drop oldest until back under.
	for e.cfg.BudgetBytes > 0 && e.unackedBytes > e.cfg.BudgetBytes && len(e.entries) > 1 {
		victim := e.entries[0]
		e.entries = e.entries[1:]
		if victim.batch != nil {
			e.inMem--
		}
		e.unackedBytes -= victim.size
		mDropped.Inc()
		mDroppedB.Add(uint64(victim.size))
		mQueueDepth.Add(-1)
		e.mu.Unlock()
		e.wal.Ack(victim.seq)
		e.cfg.Logf("sink %s: loss budget exceeded, dropped batch seq %d (%d bytes)", e.sink.Name(), victim.seq, victim.size)
		e.mu.Lock()
	}
	e.mu.Unlock()
	e.syncWALGauge()
}

// drain delivers queued batches head-first until the queue empties, the
// breaker opens, or a batch fails through its retries. Requires opMu.
func (e *Exporter) drain(ctx context.Context) error {
	for {
		e.mu.Lock()
		if len(e.entries) == 0 {
			e.mu.Unlock()
			e.maybeCompact()
			return nil
		}
		head := e.entries[0]
		e.mu.Unlock()

		if head.batch == nil {
			if err := e.refill(); err != nil {
				return err
			}
			continue
		}
		if !e.cfg.Breaker.Allow() {
			return retry.ErrOpen
		}
		b := *head.batch
		_, err := e.cfg.Policy.Do(ctx, func(ctx context.Context) error {
			return e.sink.Export(ctx, b)
		})
		switch {
		case err == nil:
			e.cfg.Breaker.Record(nil)
			mBatches.Inc()
			mSamples.Add(uint64(len(b.Samples)))
			e.settleHead(head)
		case IsFatal(err):
			// The sink answered and rejected: the peer is alive (the
			// breaker hears a success) but the batch is unsalvageable.
			e.cfg.Breaker.Record(nil)
			mFatal.Inc()
			e.cfg.Logf("sink %s: batch seq %d rejected: %v", e.sink.Name(), b.Seq, err)
			e.settleHead(head)
		default:
			e.cfg.Breaker.Record(err)
			mFailures.Inc()
			e.mu.Lock()
			e.lastErr = err
			e.mu.Unlock()
			return err
		}
	}
}

// settleHead acks and removes the head entry.
func (e *Exporter) settleHead(head entry) {
	e.wal.Ack(head.seq)
	e.mu.Lock()
	if len(e.entries) > 0 && e.entries[0].seq == head.seq {
		if e.entries[0].batch != nil {
			e.inMem--
		}
		e.entries = e.entries[1:]
		e.unackedBytes -= head.size
		mQueueDepth.Add(-1)
	}
	e.lastErr = nil
	e.mu.Unlock()
	e.syncWALGauge()
}

// refill reloads evicted payloads from the WAL. An entry whose payload
// is gone from the WAL too (a corrupt record) is unrecoverable and is
// dropped against the loss budget counters.
func (e *Exporter) refill() error {
	batches, err := e.wal.Reload()
	if err != nil {
		return err
	}
	bySeq := make(map[uint64]*Batch, len(batches))
	for i := range batches {
		bySeq[batches[i].Seq] = &batches[i]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	refilled := 0
	kept := e.entries[:0]
	for _, ent := range e.entries {
		if ent.batch == nil {
			b := bySeq[ent.seq]
			if b == nil {
				e.unackedBytes -= ent.size
				mDropped.Inc()
				mDroppedB.Add(uint64(ent.size))
				mQueueDepth.Add(-1)
				continue
			}
			// The queue head must always regain its payload (drain would
			// spin otherwise); later entries refill only up to the cap.
			if len(kept) == 0 || e.inMem < e.cfg.QueueCap {
				ent.batch = b
				e.inMem++
				refilled++
			}
		}
		kept = append(kept, ent)
	}
	e.entries = kept
	if refilled > 0 {
		mReplayed.Add(uint64(refilled))
	}
	return nil
}

func (e *Exporter) maybeCompact() {
	if !e.wal.ShouldCompact() {
		return
	}
	unacked, err := e.wal.Reload()
	if err != nil {
		e.cfg.Logf("sink %s: WAL reload for compaction: %v", e.sink.Name(), err)
		return
	}
	e.mu.Lock()
	maxSeq := e.seq
	e.mu.Unlock()
	if err := e.wal.Compact(unacked, maxSeq); err != nil {
		e.cfg.Logf("sink %s: WAL compaction: %v", e.sink.Name(), err)
	}
	e.syncWALGauge()
}

// syncWALGauge folds this exporter's WAL size change into the aggregate
// gauge.
func (e *Exporter) syncWALGauge() {
	size := e.wal.Size()
	e.mu.Lock()
	delta := size - e.lastWALBytes
	e.lastWALBytes = size
	e.mu.Unlock()
	if delta != 0 {
		mWALBytes.Add(delta)
	}
}

// Flush collects one final delta and then drives delivery until the
// queue empties or ctx expires. It returns the remaining depth — zero
// means every collected increment reached the sink.
func (e *Exporter) Flush(ctx context.Context) int {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	e.collect()
	for {
		err := e.drain(ctx)
		e.mu.Lock()
		depth := len(e.entries)
		e.mu.Unlock()
		if depth == 0 || ctx.Err() != nil {
			return depth
		}
		if err != nil {
			// Transient failure or open breaker: wait briefly (bounded by
			// ctx) before the next delivery wave.
			select {
			case <-ctx.Done():
				return depth
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
}

// Close stops the loop, flushes within ctx's deadline, fsyncs the WAL
// (so anything undelivered is durable for the next incarnation) and
// closes the sink. A non-nil error reports an unflushed backlog — a
// drain deadline hit while the sink was down — which is persisted, not
// lost.
func (e *Exporter) Close(ctx context.Context) error {
	e.stopLoop()
	left := e.Flush(ctx)
	e.wal.Sync()
	e.wal.Close()
	serr := e.sink.Close()
	if left > 0 {
		return fmt.Errorf("sink %s: %d batch(es) undelivered at close (persisted in %s)", e.sink.Name(), left, e.wal.Path())
	}
	return serr
}

// Kill stops the exporter without flushing — the crash-simulation path
// (and the fastest possible abort). The WAL already holds every
// collected batch, so a successor opened on the same path redelivers
// them.
func (e *Exporter) Kill() {
	e.stopLoop()
	e.wal.Sync()
	e.wal.Close()
	e.sink.Close()
	e.mu.Lock()
	n := len(e.entries)
	e.entries = nil
	e.inMem = 0
	e.mu.Unlock()
	if n > 0 {
		mQueueDepth.Add(int64(-n))
	}
}

func (e *Exporter) stopLoop() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}
