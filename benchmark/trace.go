package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracing, from outside: the traced run records a span at every layer
// boundary it crosses itself — around each HTTP call, and around each
// public function it replays a request's bytes through — keeps them in
// memory, and writes them as a Chrome trace when the run ends. Spans
// inside the daemons are a later change; nothing here touches them.

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one, or -1.
type span struct {
	ID     int
	Parent int
	Req    int
	Name   string // "<package>.<stage>"
	Lane   string // the process the work belongs to
	Start  time.Duration
	End    time.Duration
}

type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID.
func (t *tracer) add(parent, req int, name, lane string, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id, parent, req, name, lane, start, end})
	return id
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (parallel shards) and may stick out of the parent (clipped).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[s.ID] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		edge := s.Start
		for _, v := range ivs {
			if v.lo > edge {
				edge = v.lo
			}
			if v.hi > edge {
				covered += v.hi - edge
				edge = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeChromeTrace writes spans in the Trace Event format that
// chrome://tracing and ui.perfetto.dev open: one complete ("X") event per
// span, one track per lane.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := make(map[string]int)
	var events []event
	for _, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": s.Lane}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
