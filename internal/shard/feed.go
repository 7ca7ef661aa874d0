package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/obsv"
)

var (
	feedPublished = obsv.C("shard.feed.published")
	feedOps       = obsv.C("shard.feed.ops")
	feedFetches   = obsv.C("shard.feed.fetches")
	feedGone      = obsv.C("shard.feed.gone")
	feedSnapshots = obsv.C("shard.feed.snapshots")
	feedHead      = obsv.G("shard.feed.head")
)

// Feed endpoint paths, mounted under the compiler node's mux.
const (
	DeltasPath   = "/feed/deltas"
	SnapshotPath = "/feed/snapshot"
	StatusPath   = "/feed/status"
)

// SeqHeader carries a snapshot's feed position on the catch-up response.
const SeqHeader = "X-Netcluster-Seq"

// DefaultMaxLog is how many sequenced deltas the feed retains for
// catch-up; a follower further behind than this re-joins from a
// snapshot (410 Gone on the delta fetch).
const DefaultMaxLog = 4096

// maxFetch caps how many deltas one GET /feed/deltas returns.
const maxFetch = 512

// SeqDelta is one retained log record.
type SeqDelta struct {
	Seq   uint64
	Delta bgp.Delta
}

// Feed is the elected compiler node's side of delta distribution: it
// owns the authoritative churn table, assigns each applied delta the
// next sequence number (sequence == table generation, so "in lockstep"
// is checkable on both ends), retains a bounded log for catch-up, and
// serves the stream plus join snapshots over HTTP.
//
// Election is by configuration (exactly one clusterd runs -feed-serve),
// the same simplification the PBFT-style harnesses in the related work
// make: the interesting failure modes — lagging followers, partitioned
// fetches, nodes joining mid-stream — live downstream of the compiler.
type Feed struct {
	table *churn.Table

	mu   sync.Mutex
	head uint64     // last published sequence number
	log  []SeqDelta // tail of the stream: log[len-1].Seq == head
	max  int

	// One-deep snapshot cache: marshaling a big table is the expensive
	// part of a join, and every joiner between two publishes sees the
	// same bytes.
	snapSeq   uint64
	snapBytes []byte
}

// NewFeed wraps the authoritative table. maxLog <= 0 selects
// DefaultMaxLog. The feed's sequence numbering continues from the
// table's current generation, so a warm-started compiler resumes its
// stream where the snapshot's sidecar says it stopped.
func NewFeed(t *churn.Table, maxLog int) *Feed {
	if maxLog <= 0 {
		maxLog = DefaultMaxLog
	}
	f := &Feed{table: t, head: t.Generation(), max: maxLog}
	feedHead.Set(int64(f.head))
	return f
}

// Head returns the last published sequence number.
func (f *Feed) Head() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.head
}

// Apply publishes one delta: applies it to the authoritative table,
// assigns it the next sequence number (== the new table generation) and
// appends it to the retained log. Single-publisher, like the table's
// write side; the HTTP read side is fully concurrent.
func (f *Feed) Apply(d bgp.Delta) (churn.SwapStats, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.table.Apply(d)
	f.head = st.Generation
	f.log = append(f.log, SeqDelta{Seq: st.Generation, Delta: d})
	if len(f.log) > f.max {
		f.log = append(f.log[:0:0], f.log[len(f.log)-f.max:]...)
	}
	feedPublished.Inc()
	feedOps.Add(uint64(len(d.Ops)))
	feedHead.Set(int64(f.head))
	return st, f.head
}

// tail returns the retained deltas in (from, from+limit], or ok=false
// when from has fallen off the log (the caller answers 410 Gone).
func (f *Feed) tail(from uint64, limit int) (ds []SeqDelta, head uint64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from > f.head {
		// A follower ahead of the feed can only mean a stream restart
		// (compiler rebooted without its sidecar); force a re-join.
		return nil, f.head, false
	}
	oldest := f.head - uint64(len(f.log)) // seq before the first retained
	if from < oldest {
		return nil, f.head, false
	}
	start := int(from - oldest) // index of the first delta to return
	end := start + limit
	if end > len(f.log) {
		end = len(f.log)
	}
	return f.log[start:end], f.head, true
}

// Snapshot marshals the authoritative table at its current position,
// returning the bytes and the sequence number they capture. The pair is
// consistent: publication and snapshotting serialize on the feed mutex.
func (f *Feed) Snapshot() ([]byte, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.snapBytes != nil && f.snapSeq == f.head {
		return f.snapBytes, f.snapSeq, nil
	}
	data, err := bgp.MarshalTable(f.table.Load())
	if err != nil {
		return nil, 0, err
	}
	f.snapBytes, f.snapSeq = data, f.head
	feedSnapshots.Inc()
	return data, f.head, nil
}

// Handler serves the feed protocol:
//
//	GET /feed/deltas?from=N[&max=K]  deltas in (N, N+K], JSON; 410 Gone
//	                                 when N has fallen off the log
//	GET /feed/snapshot               table snapshot bytes at the stream
//	                                 head, X-Netcluster-Seq: position
//	GET /feed/status                 head + retained-log extent, JSON
func (f *Feed) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(DeltasPath, f.handleDeltas)
	mux.HandleFunc(SnapshotPath, f.handleSnapshot)
	mux.HandleFunc(StatusPath, f.handleStatus)
	return mux
}

func (f *Feed) handleDeltas(w http.ResponseWriter, r *http.Request) {
	feedFetches.Inc()
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad from: %v", err), http.StatusBadRequest)
		return
	}
	limit := maxFetch
	if ms := r.URL.Query().Get("max"); ms != "" {
		m, err := strconv.Atoi(ms)
		if err != nil || m < 1 {
			http.Error(w, fmt.Sprintf("bad max %q", ms), http.StatusBadRequest)
			return
		}
		if m < limit {
			limit = m
		}
	}
	ds, head, ok := f.tail(from, limit)
	if !ok {
		feedGone.Inc()
		w.Header().Set(SeqHeader, strconv.FormatUint(head, 10))
		http.Error(w, fmt.Sprintf("seq %d no longer retained (head %d): re-join from %s", from, head, SnapshotPath),
			http.StatusGone)
		return
	}
	resp := DeltaResponse{Head: head, Deltas: make([]WireDelta, len(ds))}
	for i, sd := range ds {
		resp.Deltas[i] = EncodeDelta(sd.Seq, sd.Delta)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (f *Feed) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	data, seq, err := f.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(SeqHeader, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (f *Feed) handleStatus(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	head, logged := f.head, len(f.log)
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Head     uint64 `json:"head"`
		Retained int    `json:"retained"`
		Oldest   uint64 `json:"oldest_retained,omitempty"`
	}{head, logged, head - uint64(logged) + 1})
}
