package cluster

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/netaware/netcluster/internal/weblog"
)

func TestClusterStreamMatchesClusterLog(t *testing.T) {
	// Serialize a small in-memory log, stream-cluster it, and compare
	// against the in-memory clustering: every metric must agree.
	l := logOf(
		[2]string{"12.65.147.94", "/a"},
		[2]string{"12.65.147.149", "/b"},
		[2]string{"24.48.3.87", "/a"},
		[2]string{"24.48.2.166", "/a"},
		[2]string{"99.99.99.99", "/c"}, // unclusterable
	)
	var buf bytes.Buffer
	if err := weblog.WriteCLF(&buf, l); err != nil {
		t.Fatal(err)
	}
	m := mergedTable("12.65.128.0/19", "24.48.2.0/23")
	mem := ClusterLog(l, NetworkAware{Table: m})
	st, err := ClusterStream(&buf, NetworkAware{Table: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Clusters) != len(mem.Clusters) {
		t.Fatalf("cluster counts: stream %d vs memory %d", len(st.Clusters), len(mem.Clusters))
	}
	for _, mc := range mem.Clusters {
		sc, ok := st.Clusters[mc.Prefix]
		if !ok {
			t.Fatalf("stream missing cluster %v", mc.Prefix)
		}
		if sc.NumClients() != mc.NumClients() || sc.Requests != mc.Requests ||
			sc.Bytes != mc.Bytes || sc.NumURLs() != mc.NumURLs() {
			t.Fatalf("cluster %v differs: stream %+v vs memory clients=%d req=%d bytes=%d urls=%d",
				mc.Prefix, sc, mc.NumClients(), mc.Requests, mc.Bytes, mc.NumURLs())
		}
		// Both number URLs in first-seen order, so the ids themselves agree.
		if s, m := sortedURLs(sc.EachURL), sortedURLs(mc.EachURL); !slices.Equal(s, m) {
			t.Fatalf("cluster %v URLs: stream %v vs memory %v", mc.Prefix, s, m)
		}
	}
	if len(st.Unclustered) != len(mem.Unclustered) {
		t.Fatalf("unclustered: stream %d vs memory %d", len(st.Unclustered), len(mem.Unclustered))
	}
	if st.TotalRequests != mem.TotalRequests {
		t.Fatalf("totals: stream %d vs memory %d", st.TotalRequests, mem.TotalRequests)
	}
	if st.Coverage() != mem.Coverage() {
		t.Fatalf("coverage: stream %g vs memory %g", st.Coverage(), mem.Coverage())
	}
}

// TestClusterStreamPerClientCounts pins what the per-client accumulators
// must reproduce: on a log whose clients repeat and interleave, across
// two clusters and an unclusterable pair, every Clients map and the
// unclustered set equal ClusterLog's — also on a prefix of the log, which
// is what a pass sees that stops early, with clients seen only once.
func TestClusterStreamPerClientCounts(t *testing.T) {
	l := logOf(
		[2]string{"12.65.147.94", "/a"},
		[2]string{"24.48.3.87", "/a"},
		[2]string{"99.99.99.99", "/c"}, // unclusterable
		[2]string{"12.65.147.94", "/b"},
		[2]string{"12.65.147.149", "/b"},
		[2]string{"24.48.3.87", "/b"},
		[2]string{"12.65.147.94", "/a"},
		[2]string{"99.99.99.99", "/a"},
		[2]string{"88.88.88.88", "/a"}, // unclusterable
		[2]string{"24.48.2.166", "/c"},
		[2]string{"12.65.147.94", "/c"},
		[2]string{"24.48.3.87", "/a"},
	)
	na := NetworkAware{Table: mergedTable("12.65.128.0/19", "24.48.2.0/23")}
	for _, n := range []int{len(l.Requests), 5, 1} {
		part := *l
		part.Requests = l.Requests[:n]
		mem := ClusterLog(&part, na)
		st, err := ClusterStream(strings.NewReader(clfOf(t, &part)), na)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Clusters) != len(mem.Clusters) || st.TotalRequests != mem.TotalRequests {
			t.Fatalf("first %d: stream %d clusters / %d requests, memory %d / %d",
				n, len(st.Clusters), st.TotalRequests, len(mem.Clusters), mem.TotalRequests)
		}
		for _, mc := range mem.Clusters {
			sc := st.Clusters[mc.Prefix]
			if sc == nil || !reflect.DeepEqual(sc.Clients, mc.Clients) || sc.Requests != mc.Requests {
				t.Errorf("first %d, cluster %v: stream %+v, memory clients %v requests %d",
					n, mc.Prefix, sc, mc.Clients, mc.Requests)
			}
		}
		if len(st.Unclustered) != len(mem.Unclustered) {
			t.Errorf("first %d: unclustered stream %v, memory %v", n, st.Unclustered, mem.Unclustered)
		}
		for _, a := range mem.Unclustered {
			if _, ok := st.Unclustered[a]; !ok {
				t.Errorf("first %d: %v missing from the stream's unclustered set", n, a)
			}
		}
	}
	// The prefix a consumer sees when fn stops the stream is exactly that
	// prefix of the log.
	var seen []weblog.Request
	stats, err := weblog.StreamCLF(strings.NewReader(clfOf(t, l)), func(r weblog.StreamRecord) bool {
		seen = append(seen, r.Request)
		return len(seen) < 5
	})
	if err != nil || stats.Records != 5 || len(seen) != 5 {
		t.Fatalf("early stop: %d records, %d delivered, err %v", stats.Records, len(seen), err)
	}
	for i, r := range seen {
		if want := l.Requests[i]; r.Client != want.Client || r.URL != want.URL || r.Time != want.Time {
			t.Errorf("record %d = %+v, want %+v", i, r, want)
		}
	}
}

// sortedURLs collects the ids each hands out, in increasing order.
func sortedURLs(each func(func(int32))) []int32 {
	var ids []int32
	each(func(u int32) { ids = append(ids, u) })
	slices.Sort(ids)
	return ids
}

// clfOf serializes l as CLF text.
func clfOf(t *testing.T, l *weblog.Log) string {
	t.Helper()
	var buf bytes.Buffer
	if err := weblog.WriteCLF(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestClusterStreamSimple(t *testing.T) {
	in := `1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 100
1.2.3.5 - - [13/Feb/1998:06:15:05 +0000] "GET /b HTTP/1.0" 200 200
9.8.7.6 - - [13/Feb/1998:06:15:06 +0000] "GET /a HTTP/1.0" 200 100
`
	res, err := ClusterStream(strings.NewReader(in), Simple{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	c, ok := res.Clusters[pfx("1.2.3.0/24")]
	if !ok || c.NumClients() != 2 || c.Requests != 2 || c.Bytes != 300 {
		t.Fatalf("cluster = %+v ok=%v", c, ok)
	}
	if res.Stats.Records != 3 || res.Stats.URLs != 2 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestClusterStreamError(t *testing.T) {
	if _, err := ClusterStream(strings.NewReader("garbage\n"), Simple{}); err == nil {
		t.Fatal("malformed stream must error")
	}
}

func TestStreamCLFEarlyStop(t *testing.T) {
	in := strings.Repeat("1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] \"GET /a HTTP/1.0\" 200 100\n", 10)
	n := 0
	st, err := weblog.StreamCLF(strings.NewReader(in), func(weblog.StreamRecord) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times after early stop", n)
	}
	if st.Records != 3 {
		t.Fatalf("stats.Records = %d", st.Records)
	}
}

func TestStreamCLFOutOfOrderClamped(t *testing.T) {
	in := `1.2.3.4 - - [13/Feb/1998:06:15:10 +0000] "GET /a HTTP/1.0" 200 100
1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET /a HTTP/1.0" 200 100
`
	var times []uint32
	_, err := weblog.StreamCLF(strings.NewReader(in), func(r weblog.StreamRecord) bool {
		times = append(times, r.Request.Time)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if times[0] != 0 || times[1] != 0 {
		t.Fatalf("out-of-order record not clamped: %v", times)
	}
}

func TestStreamCLFInternedStringsStable(t *testing.T) {
	// Records captured from the callback must stay valid after the stream
	// advances (no aliasing of scanner buffers).
	var lines strings.Builder
	for i := 0; i < 500; i++ {
		lines.WriteString("1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] \"GET /page")
		lines.WriteString(strings.Repeat("x", i%37))
		lines.WriteString(" HTTP/1.0\" 200 100\n")
	}
	var captured []weblog.StreamRecord
	if _, err := weblog.StreamCLF(strings.NewReader(lines.String()), func(r weblog.StreamRecord) bool {
		captured = append(captured, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range captured {
		if !strings.HasPrefix(r.Path, "/page") {
			t.Fatalf("captured path corrupted: %q", r.Path)
		}
	}
}
