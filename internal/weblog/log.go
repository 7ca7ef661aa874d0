// Package weblog models web server access logs: a compact in-memory
// representation sized for multi-million-request traces, Common Log Format
// parsing and serialization, and a synthetic workload generator that
// reproduces the statistical shape of the paper's logs (Nagano, Apache,
// EW3, Sun) including planted spiders and proxies with ground truth.
package weblog

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
)

// Request is one log line, packed to 16 bytes so the paper's largest traces
// (46 M requests) fit in memory. Resource metadata (path, size) lives in
// the log's Resources table; the user agent in the Agents table.
type Request struct {
	Time   uint32 // seconds since Log.Start
	Client netutil.Addr
	URL    int32  // index into Log.Resources
	Agent  uint16 // index into Log.Agents
	_      uint16 // padding, reserved
}

// Resource is one distinct URL served by the site.
type Resource struct {
	Path string
	Size int32 // response body size in bytes
	// ChangePeriod is the mean interval, in seconds, between modifications
	// of the resource; 0 means the resource never changes. The caching
	// simulation's If-Modified-Since logic derives Last-Modified times
	// from it (see LastModified).
	ChangePeriod uint32
}

// LastModified returns the most recent modification time of the resource
// at or before t (seconds since log start). Immutable resources report 0.
func (r Resource) LastModified(t uint32) uint32 {
	if r.ChangePeriod == 0 {
		return 0
	}
	return t - t%r.ChangePeriod
}

// GroundTruth records what the generator planted, so detection experiments
// can be scored exactly.
type GroundTruth struct {
	Spiders map[netutil.Addr]bool
	Proxies map[netutil.Addr]bool
}

// Log is a complete server log.
type Log struct {
	Name      string
	Start     time.Time
	Duration  time.Duration
	Requests  []Request // sorted by Time
	Resources []Resource
	Agents    []string
	Truth     *GroundTruth // nil for parsed real logs
}

// Stats summarizes a log the way the paper introduces each of its traces.
type Stats struct {
	Requests      int
	UniqueClients int
	UniqueURLs    int
	Duration      time.Duration
}

// Stats computes the summary. UniqueURLs counts resources actually
// requested, not the size of the resource table.
func (l *Log) Stats() Stats {
	clients := make(map[netutil.Addr]struct{})
	urls := make(map[int32]struct{})
	for i := range l.Requests {
		clients[l.Requests[i].Client] = struct{}{}
		urls[l.Requests[i].URL] = struct{}{}
	}
	return Stats{
		Requests:      len(l.Requests),
		UniqueClients: len(clients),
		UniqueURLs:    len(urls),
		Duration:      l.Duration,
	}
}

// Clients returns the distinct client addresses in first-seen order.
func (l *Log) Clients() []netutil.Addr {
	seen := make(map[netutil.Addr]struct{})
	var out []netutil.Addr
	for i := range l.Requests {
		c := l.Requests[i].Client
		if _, dup := seen[c]; !dup {
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	return out
}

// SortByTime orders requests chronologically, keeping requests of the
// same second in their input order; generators and parsers call it
// before returning a log, and every consumer may rely on the order.
//
// It is a counting sort over the seconds, linear in the requests and the
// time range. A range far wider than the log (a sparse log spanning
// months, or a parsed log with one timestamp years off) would make the
// counts outweigh the requests, so those logs take a comparison sort.
func (l *Log) SortByTime() {
	r := l.Requests
	var last uint32
	for i := range r {
		last = max(last, r[i].Time)
	}
	if uint64(last) > 4*uint64(len(r))+1<<16 {
		slices.SortStableFunc(r, func(a, b Request) int { return cmp.Compare(a.Time, b.Time) })
		return
	}
	// start[t] is where the first request of second t goes.
	start := make([]uint32, last+2)
	for i := range r {
		start[r[i].Time+1]++
	}
	for t := 1; t < len(start); t++ {
		start[t] += start[t-1]
	}
	sorted := make([]Request, len(r))
	for i := range r {
		sorted[start[r[i].Time]] = r[i]
		start[r[i].Time]++
	}
	copy(r, sorted)
}

// Slice returns a shallow log containing only requests with Time in
// [from, to) seconds, sharing resource and agent tables with l. The paper
// uses this to partition the Nagano log into four 6-hour sessions
// (Section 3.6).
func (l *Log) Slice(from, to uint32) *Log {
	lo := sort.Search(len(l.Requests), func(i int) bool { return l.Requests[i].Time >= from })
	hi := sort.Search(len(l.Requests), func(i int) bool { return l.Requests[i].Time >= to })
	return &Log{
		Name:      fmt.Sprintf("%s[%d:%d)", l.Name, from, to),
		Start:     l.Start.Add(time.Duration(from) * time.Second),
		Duration:  time.Duration(to-from) * time.Second,
		Requests:  l.Requests[lo:hi],
		Resources: l.Resources,
		Agents:    l.Agents,
		Truth:     l.Truth,
	}
}

// Sessions splits the log into n equal-duration consecutive slices.
func (l *Log) Sessions(n int) []*Log {
	if n <= 0 {
		panic(fmt.Sprintf("weblog: Sessions(%d)", n))
	}
	total := uint32(l.Duration / time.Second)
	out := make([]*Log, 0, n)
	for i := 0; i < n; i++ {
		from := total * uint32(i) / uint32(n)
		to := total * uint32(i+1) / uint32(n)
		if i == n-1 {
			to = total + 1 // include the final second
		}
		out = append(out, l.Slice(from, to))
	}
	return out
}
