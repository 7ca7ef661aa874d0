package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

var (
	followerApplied  = obsv.C("shard.follower.applied")
	followerFiltered = obsv.C("shard.follower.filtered_ops")
	followerResyncs  = obsv.C("shard.follower.resyncs")
	followerErrors   = obsv.C("shard.follower.errors")
	followerLag      = obsv.G("shard.follower.lag")

	// feedLagGens is the SLO form of follower lag: generations between
	// the feed's head and this follower's table, as measured against
	// /feed/status. Unlike shard.follower.lag (updated only when a delta
	// fetch succeeds), the Lag probe keeps this gauge honest while the
	// follower is stuck, which is exactly when an operator needs it.
	feedLagGens = obsv.G("shard.feed.lag.generations")
)

// DefaultPollEvery is the follower's delta-fetch cadence when the
// caller doesn't set one.
const DefaultPollEvery = 200 * time.Millisecond

// maxStatusBytes caps a /feed/status answer; a real one is three numbers,
// under 100 bytes.
const maxStatusBytes = 4 << 10

// Follower tails a Feed over HTTP and keeps a local churn.Table in
// lockstep: every published delta advances the local generation by
// exactly one, filtered down to the shard's owned range when Keep is
// set, so generation N here answers byte-identically (over owned
// addresses) to generation N on the compiler node.
type Follower struct {
	Base   string                           // feed base URL, e.g. "http://127.0.0.1:9090"
	Client *http.Client                     // nil = http.DefaultClient
	Table  *churn.Table                     // local table; seeded by Join
	Keep   func(netutil.Prefix) bool        // nil = keep everything
	Logf   func(format string, args ...any) // nil = silent

	PollEvery time.Duration // Run's fetch cadence; 0 = DefaultPollEvery
	MaxFetch  int           // per-fetch delta cap; 0 = server default

	// MonitorEvery is Run's lag-probe cadence: how often a background
	// Lag call measures this follower against the feed's /feed/status
	// head. 0 disables the monitor (Step still updates the gauges on
	// every successful fetch).
	MonitorEvery time.Duration

	seq atomic.Uint64 // last applied sequence number
	lag atomic.Uint64 // generations behind the feed head, as last measured
}

// Join seeds a follower from the feed's snapshot endpoint: it downloads
// the catch-up snapshot, warm-starts a churn table at the snapshot's
// stream position (filtered to keep's range), and returns a Follower
// ready to Step.
func Join(base string, client *http.Client, keep func(netutil.Prefix) bool) (*Follower, error) {
	f := &Follower{Base: base, Client: client, Keep: keep}
	if err := f.resync(); err != nil {
		return nil, err
	}
	return f, nil
}

// RejoinFromSnapshot builds a follower warm-started from a saved table
// snapshot instead of the feed's snapshot endpoint: c is the loaded
// .nct table and meta its sidecar position. The follower resumes the
// stream at meta.Seq; if that has already fallen off the feed's
// retained log, the first Step resyncs from the live snapshot — so a
// stale snapshot costs one extra download, never a wrong table.
func RejoinFromSnapshot(base string, client *http.Client, c *bgp.Compiled, meta bgp.TableMeta, keep func(netutil.Prefix) bool) *Follower {
	f := &Follower{
		Base:   base,
		Client: client,
		Keep:   keep,
		Table:  churn.NewFromCompiled(c, keep, meta.Generation),
	}
	f.seq.Store(meta.Seq)
	return f
}

// Seq returns the last applied sequence number.
func (f *Follower) Seq() uint64 { return f.seq.Load() }

// LastLag returns this follower's generation lag behind the feed head as
// last measured by Step, Lag or a resync. It reads no registry, so
// followers sharing a process each report their own.
func (f *Follower) LastLag() uint64 { return f.lag.Load() }

// setLag records a lag measurement: this follower's own, and the
// process-wide gauges.
func (f *Follower) setLag(lag uint64) {
	f.lag.Store(lag)
	followerLag.Set(int64(lag))
	feedLagGens.Set(int64(lag))
}

func (f *Follower) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return http.DefaultClient
}

func (f *Follower) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// resync (re)seeds the local table from the feed snapshot — the join
// path, and the recovery path when the follower has fallen off the
// feed's retained log (410 Gone).
func (f *Follower) resync() error {
	resp, err := f.client().Get(f.Base + SnapshotPath)
	if err != nil {
		return fmt.Errorf("feed snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("feed snapshot: %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(SeqHeader), 10, 64)
	if err != nil {
		return fmt.Errorf("feed snapshot: bad %s header: %w", SeqHeader, err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("feed snapshot: %w", err)
	}
	c, err := bgp.ReadTable(data)
	if err != nil {
		return fmt.Errorf("feed snapshot: %w", err)
	}
	if f.Table == nil {
		f.Table = churn.NewFromCompiled(c, f.Keep, seq)
	} else {
		f.Table.Reseed(c, f.Keep, seq)
		followerResyncs.Inc()
	}
	f.seq.Store(seq)
	// The snapshot is the stream head (or close to it); report caught up
	// until the next fetch or probe measures the real distance.
	f.setLag(0)
	f.logf("shard follower: seeded from snapshot at seq %d", seq)
	return nil
}

// Step fetches and applies one round of deltas, returning how many it
// applied. A 410 Gone (fallen off the retained log) triggers an
// automatic snapshot resync; a sequence gap inside a response — which a
// correct feed never produces — is treated the same way rather than
// leaving the table silently diverged. Zero applied with nil error
// means caught up.
func (f *Follower) Step(ctx context.Context) (int, error) {
	url := fmt.Sprintf("%s%s?from=%d", f.Base, DeltasPath, f.seq.Load())
	if f.MaxFetch > 0 {
		url += fmt.Sprintf("&max=%d", f.MaxFetch)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client().Do(req)
	if err != nil {
		followerErrors.Inc()
		return 0, fmt.Errorf("feed deltas: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		f.logf("shard follower: seq %d fell off the feed log, resyncing", f.seq.Load())
		return 0, f.resync()
	default:
		followerErrors.Inc()
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("feed deltas: %s", resp.Status)
	}
	var dr DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		followerErrors.Inc()
		return 0, fmt.Errorf("feed deltas: %w", err)
	}
	applied := 0
	for _, wd := range dr.Deltas {
		if wd.Seq != f.seq.Load()+1 {
			f.logf("shard follower: sequence gap (have %d, got %d), resyncing", f.seq.Load(), wd.Seq)
			return applied, f.resync()
		}
		d, err := DecodeDelta(wd)
		if err != nil {
			followerErrors.Inc()
			return applied, err
		}
		kept := d
		if f.Keep != nil {
			kept = FilterDelta(f.Keep, d)
			followerFiltered.Add(uint64(len(d.Ops) - len(kept.Ops)))
		}
		st := f.Table.Apply(kept)
		if st.Generation != wd.Seq {
			// Lockstep broken locally (a table this follower doesn't own
			// the write side of); resync rather than drift.
			f.logf("shard follower: generation %d != seq %d, resyncing", st.Generation, wd.Seq)
			return applied, f.resync()
		}
		f.seq.Store(wd.Seq)
		applied++
		followerApplied.Inc()
	}
	var lag uint64
	if seq := f.seq.Load(); dr.Head > seq {
		lag = dr.Head - seq
	}
	f.setLag(lag)
	return applied, nil
}

// Lag measures this follower's generation lag against the feed's
// /feed/status head without fetching or applying anything, and updates
// the lag gauges. It is safe to call concurrently with Step/Run — this
// is the probe Run's lag monitor drives, so a follower wedged behind a
// paused or partitioned feed still reports its true, growing distance.
func (f *Follower) Lag(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.Base+StatusPath, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return 0, fmt.Errorf("feed status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("feed status: %s", resp.Status)
	}
	var st struct {
		Head uint64 `json:"head"`
	}
	body, err := readCapped(nil, resp.Body, resp.ContentLength, maxStatusBytes)
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		return 0, fmt.Errorf("feed status: %w", err)
	}
	var lag uint64
	if seq := f.seq.Load(); st.Head > seq {
		lag = st.Head - seq
	}
	f.setLag(lag)
	return lag, nil
}

// Run polls the feed until ctx is done, resyncing through transient
// errors. Fetch errors are logged and retried on the next tick —
// partitions heal; a follower that exits on the first dropped
// connection doesn't. When MonitorEvery is set, a background probe
// additionally measures lag against /feed/status on that cadence, so
// the lag gauges keep moving even while delta fetches stall.
func (f *Follower) Run(ctx context.Context) {
	every := f.PollEvery
	if every <= 0 {
		every = DefaultPollEvery
	}
	if f.MonitorEvery > 0 {
		go func() {
			tick := time.NewTicker(f.MonitorEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				if _, err := f.Lag(ctx); err != nil && ctx.Err() == nil {
					f.logf("shard follower: lag probe: %v", err)
				}
			}
		}()
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		// Drain until caught up so one slow tick doesn't leave a burst
		// half-applied behind a caught-up generation label.
		for {
			n, err := f.Step(ctx)
			if err != nil {
				if ctx.Err() == nil {
					f.logf("shard follower: %v", err)
				}
				break
			}
			if n == 0 {
				break
			}
		}
	}
}
