package shard

import (
	"fmt"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// The JSON wire shapes. The lookup and batch shapes are what clients
// get — exactly what cmd/clusterd has served since the service landed,
// so curl-able text in, JSON out is unchanged on every node and through
// the router. Router and nodes do not exchange them: that hop is a batch
// stream (stream.go) carrying columnar batch frames (frame.go), and the
// router requires nodes that serve it. The serving path renders these
// shapes without building them (render.go); the structs remain for
// clients, tests and BatchCtx. The delta shapes are the feed protocol
// (feed.go).

// LookupResult is one address's clustering answer.
type LookupResult struct {
	Addr       string `json:"addr"`
	Clustered  bool   `json:"clustered"`
	Prefix     string `json:"prefix,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Generation uint64 `json:"generation"`
}

// ResolveMatch renders a pinned-generation batch match into the wire
// shape (zero Match = unclusterable, as bgp.Compiled.LookupBatch
// reports misses).
func ResolveMatch(addr netutil.Addr, m bgp.Match, gen uint64) LookupResult {
	res := LookupResult{Addr: addr.String(), Generation: gen}
	if !m.Prefix.IsZero() {
		res.Clustered = true
		res.Prefix = m.Prefix.String()
		res.Kind = m.Kind.String()
	}
	return res
}

// BatchResponse is the POST /cluster answer of a single node: every
// result resolved against one pinned table generation.
type BatchResponse struct {
	Generation uint64         `json:"generation"`
	Results    []LookupResult `json:"results"`
}

// RouterResult is a LookupResult annotated with the shard that answered
// it. Rows owned by an unreachable shard carry Error and a zero answer —
// partial degradation, never a wrong answer.
type RouterResult struct {
	LookupResult
	Shard int    `json:"shard"`
	Error string `json:"error,omitempty"`
}

// ShardReport is one shard's slice of a routed batch.
type ShardReport struct {
	ID         int    `json:"id"`
	Addr       string `json:"addr"`
	Generation uint64 `json:"generation"`
	Addrs      int    `json:"addrs"`
	Error      string `json:"error,omitempty"`
}

// RouterBatchResponse is the routed POST /cluster answer: results in
// input order, a per-shard fan-out report, and — when any shard failed —
// the Degradation map (shard id → error), the explicit partial-failure
// contract the single-node service never needed.
type RouterBatchResponse struct {
	MapVersion  uint64            `json:"map_version"`
	Generation  uint64            `json:"generation"` // max generation among live shards
	Results     []RouterResult    `json:"results"`
	Shards      []ShardReport     `json:"shards"`
	Degradation map[string]string `json:"degradation,omitempty"`
}

// WireOp is the JSON form of one bgp.Op on the delta stream. Field names
// are terse because a burst delta carries hundreds of ops.
type WireOp struct {
	Withdraw bool     `json:"w,omitempty"`
	Kind     uint8    `json:"k,omitempty"`
	Prefix   string   `json:"p"`
	Desc     string   `json:"d,omitempty"`
	NextHop  string   `json:"nh,omitempty"`
	ASPath   []uint32 `json:"as,omitempty"`
	PeerDesc string   `json:"pd,omitempty"`
}

// WireDelta is one sequenced delta batch on the feed.
type WireDelta struct {
	Seq    uint64   `json:"seq"`
	Source string   `json:"source,omitempty"`
	Ops    []WireOp `json:"ops"`
}

// DeltaResponse is the GET /feed/deltas answer: every retained delta in
// (from, from+max], in sequence order, plus the feed's head position so
// a follower can report its lag.
type DeltaResponse struct {
	Head   uint64      `json:"head"`
	Deltas []WireDelta `json:"deltas"`
}

// EncodeDelta renders d for the stream.
func EncodeDelta(seq uint64, d bgp.Delta) WireDelta {
	w := WireDelta{Seq: seq, Source: d.Source, Ops: make([]WireOp, len(d.Ops))}
	for i, op := range d.Ops {
		w.Ops[i] = WireOp{
			Withdraw: op.Withdraw,
			Kind:     uint8(op.Kind),
			Prefix:   op.Entry.Prefix.String(),
			Desc:     op.Entry.Description,
			NextHop:  op.Entry.NextHop,
			ASPath:   op.Entry.ASPath,
			PeerDesc: op.Entry.PeerDesc,
		}
	}
	return w
}

// DecodeDelta parses and validates a streamed delta. Every prefix must
// parse and every kind must be a known source class — a corrupt feed
// entry is rejected as a whole rather than half-applied.
func DecodeDelta(w WireDelta) (bgp.Delta, error) {
	d := bgp.Delta{Source: w.Source, Ops: make([]bgp.Op, len(w.Ops))}
	for i, op := range w.Ops {
		p, err := netutil.ParsePrefix(op.Prefix)
		if err != nil {
			return bgp.Delta{}, fmt.Errorf("delta seq %d op %d: %w", w.Seq, i, err)
		}
		if op.Kind > uint8(bgp.SourceNetworkDump) {
			return bgp.Delta{}, fmt.Errorf("delta seq %d op %d: unknown source kind %d", w.Seq, i, op.Kind)
		}
		d.Ops[i] = bgp.Op{
			Withdraw: op.Withdraw,
			Kind:     bgp.SourceKind(op.Kind),
			Entry: bgp.Entry{
				Prefix:      p,
				Description: op.Desc,
				NextHop:     op.NextHop,
				ASPath:      op.ASPath,
				PeerDesc:    op.PeerDesc,
			},
		}
	}
	return d, nil
}
