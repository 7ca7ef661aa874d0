package weblog

import (
	"math/rand"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
)

func addr(s string) netutil.Addr { return netutil.MustParseAddr(s) }

func tinyLog() *Log {
	l := &Log{
		Name:     "tiny",
		Start:    time.Date(1998, 2, 13, 0, 0, 0, 0, time.UTC),
		Duration: 100 * time.Second,
		Resources: []Resource{
			{Path: "/a.html", Size: 100, ChangePeriod: 0},
			{Path: "/b.html", Size: 2000, ChangePeriod: 3600},
		},
		Agents: []string{"UA-1", "UA-2"},
		Requests: []Request{
			{Time: 5, Client: addr("1.2.3.4"), URL: 0, Agent: 0},
			{Time: 10, Client: addr("1.2.3.5"), URL: 1, Agent: 1},
			{Time: 20, Client: addr("1.2.3.4"), URL: 0, Agent: 0},
			{Time: 80, Client: addr("9.9.9.9"), URL: 1, Agent: 0},
		},
	}
	return l
}

func TestLogStats(t *testing.T) {
	st := tinyLog().Stats()
	if st.Requests != 4 || st.UniqueClients != 3 || st.UniqueURLs != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientsFirstSeenOrder(t *testing.T) {
	cs := tinyLog().Clients()
	want := []string{"1.2.3.4", "1.2.3.5", "9.9.9.9"}
	if len(cs) != len(want) {
		t.Fatalf("Clients = %v", cs)
	}
	for i, w := range want {
		if cs[i].String() != w {
			t.Errorf("Clients[%d] = %v, want %s", i, cs[i], w)
		}
	}
}

func TestSlice(t *testing.T) {
	l := tinyLog()
	s := l.Slice(10, 80)
	if len(s.Requests) != 2 {
		t.Fatalf("slice has %d requests", len(s.Requests))
	}
	if s.Requests[0].Time != 10 || s.Requests[1].Time != 20 {
		t.Fatalf("slice contents wrong: %+v", s.Requests)
	}
	if s.Duration != 70*time.Second {
		t.Fatalf("slice duration = %v", s.Duration)
	}
	if &s.Resources[0] != &l.Resources[0] {
		t.Error("slice must share the resource table")
	}
	empty := l.Slice(90, 90)
	if len(empty.Requests) != 0 {
		t.Fatalf("empty slice has %d requests", len(empty.Requests))
	}
}

func TestSessionsPartition(t *testing.T) {
	l := tinyLog()
	sessions := l.Sessions(4)
	if len(sessions) != 4 {
		t.Fatalf("%d sessions", len(sessions))
	}
	total := 0
	for _, s := range sessions {
		total += len(s.Requests)
	}
	if total != len(l.Requests) {
		t.Fatalf("sessions cover %d of %d requests", total, len(l.Requests))
	}
	defer func() {
		if recover() == nil {
			t.Error("Sessions(0) must panic")
		}
	}()
	l.Sessions(0)
}

func TestRequestsByClient(t *testing.T) {
	m := tinyLog().RequestsByClient()
	if len(m[addr("1.2.3.4")]) != 2 || len(m[addr("9.9.9.9")]) != 1 {
		t.Fatalf("RequestsByClient = %v", m)
	}
}

func TestResourceLastModified(t *testing.T) {
	immutable := Resource{ChangePeriod: 0}
	if immutable.LastModified(99999) != 0 {
		t.Error("immutable resource must report epoch 0")
	}
	r := Resource{ChangePeriod: 3600}
	if r.LastModified(3599) != 0 {
		t.Errorf("LastModified(3599) = %d", r.LastModified(3599))
	}
	if r.LastModified(3600) != 3600 {
		t.Errorf("LastModified(3600) = %d", r.LastModified(3600))
	}
	if r.LastModified(7300) != 7200 {
		t.Errorf("LastModified(7300) = %d", r.LastModified(7300))
	}
}

// TestSortByTimeIsStable sorts requests whose seconds repeat, over a
// dense range (the counting sort) and a sparse one (the comparison
// sort): requests of the same second must keep their input order.
func TestSortByTimeIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, seconds := range [][]uint32{
		{0, 1, 2, 3, 59, 60, 61, 3599},
		{0, 7, 1 << 20, 1 << 30, 1<<32 - 1},
	} {
		l := &Log{Requests: make([]Request, 5000)}
		for i := range l.Requests {
			l.Requests[i] = Request{Time: seconds[rng.Intn(len(seconds))], URL: int32(i)}
		}
		l.SortByTime()
		for i := 1; i < len(l.Requests); i++ {
			a, b := l.Requests[i-1], l.Requests[i]
			if a.Time > b.Time || a.Time == b.Time && a.URL > b.URL {
				t.Fatalf("range up to %d: request %d (second %d, input #%d) before request %d (second %d, input #%d)",
					seconds[len(seconds)-1], i-1, a.Time, a.URL, i, b.Time, b.URL)
			}
		}
	}
}

func TestSortByTime(t *testing.T) {
	l := tinyLog()
	l.Requests[0], l.Requests[3] = l.Requests[3], l.Requests[0]
	l.SortByTime()
	for i := 1; i < len(l.Requests); i++ {
		if l.Requests[i].Time < l.Requests[i-1].Time {
			t.Fatal("not sorted")
		}
	}
}

// RequestsByClient groups request indexes per client address.
func (l *Log) RequestsByClient() map[netutil.Addr][]int {
	out := make(map[netutil.Addr][]int)
	for i := range l.Requests {
		c := l.Requests[i].Client
		out[c] = append(out[c], i)
	}
	return out
}
