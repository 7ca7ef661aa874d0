package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/weblog"
)

// Equivalence fixture: one synthetic world, its merged table, and the four
// paper trace profiles at test scale, shared across the parallel tests.
var parFixture struct {
	once  sync.Once
	table NetworkAware
	logs  []*weblog.Log
	err   error
}

func parSetup(t *testing.T) (NetworkAware, []*weblog.Log) {
	t.Helper()
	parFixture.once.Do(func() {
		cfg := inet.DefaultConfig()
		cfg.NumASes = 250
		cfg.NumTierOne = 8
		w, err := inet.Generate(cfg)
		if err != nil {
			parFixture.err = err
			return
		}
		sim := bgpsim.New(w, bgpsim.DefaultConfig())
		parFixture.table = NetworkAware{Table: bgpsim.Merge(sim.Collect())}
		for _, gc := range weblog.Profiles(0.002) {
			l, err := weblog.Generate(w, gc)
			if err != nil {
				parFixture.err = err
				return
			}
			parFixture.logs = append(parFixture.logs, l)
		}
	})
	if parFixture.err != nil {
		t.Fatal(parFixture.err)
	}
	return parFixture.table, parFixture.logs
}

// streamWorkers are the worker counts every equivalence test runs; 1 is
// ClusterStream itself.
var streamWorkers = []int{1, 2, 3, 8}

// testChunkBytes cuts the test-scale logs into dozens of chunks, so every
// worker count above takes chunks of its own.
const testChunkBytes = 4 << 10

// streamWith runs the engine with workers over clf, cut into chunkBytes.
func streamWith(clf []byte, c Clusterer, workers, chunkBytes int) (*StreamResult, error) {
	return clusterStream(context.Background(), bytes.NewReader(clf), c, workers, chunkBytes)
}

// streamOf is r as a stream pass over the same log reports it, Stats
// aside.
func streamOf(r *Result) *StreamResult {
	s := &StreamResult{
		Method:        r.Method,
		Clusters:      make(map[netutil.Prefix]*StreamCluster),
		Unclustered:   make(map[netutil.Addr]struct{}),
		TotalRequests: r.TotalRequests,
	}
	var bitmaps bitmapSlab
	for _, c := range r.Clusters {
		sc := &StreamCluster{Prefix: c.Prefix, Clients: c.Clients, Requests: c.Requests, Bytes: c.Bytes}
		c.urls.each(func(u int32) { sc.urls.add(u, &bitmaps) })
		s.Clusters[c.Prefix] = sc
	}
	for _, a := range r.Unclustered {
		s.Unclustered[a] = struct{}{}
	}
	return s
}

// requireSameStreamResult asserts got is want: the same stats, the same
// clusters with the same metrics, client tallies and URL sets, the same
// unclustered clients and coverage.
func requireSameStreamResult(t *testing.T, want, got *StreamResult) {
	t.Helper()
	if want.Stats.Lines != got.Stats.Lines || want.Stats.Records != got.Stats.Records ||
		want.Stats.URLs != got.Stats.URLs || want.Stats.Agents != got.Stats.Agents ||
		want.Stats.Start.String() != got.Stats.Start.String() || want.Stats.End.String() != got.Stats.End.String() {
		t.Fatalf("Stats: %+v vs %+v", want.Stats, got.Stats)
	}
	requireSameClusters(t, want, got)
}

func requireSameClusters(t *testing.T, want, got *StreamResult) {
	t.Helper()
	if want.Method != got.Method || want.TotalRequests != got.TotalRequests {
		t.Fatalf("method/total: %q/%d vs %q/%d",
			want.Method, want.TotalRequests, got.Method, got.TotalRequests)
	}
	if len(want.Clusters) != len(got.Clusters) {
		t.Fatalf("cluster count: %d vs %d", len(want.Clusters), len(got.Clusters))
	}
	for p, w := range want.Clusters {
		g := got.Clusters[p]
		if g == nil {
			t.Fatalf("cluster %v missing", p)
		}
		if w.Requests != g.Requests || w.Bytes != g.Bytes || w.NumURLs() != g.NumURLs() {
			t.Fatalf("cluster %v: %d/%d/%d vs %d/%d/%d", p,
				w.Requests, w.Bytes, w.NumURLs(), g.Requests, g.Bytes, g.NumURLs())
		}
		if len(w.Clients) != len(g.Clients) {
			t.Fatalf("cluster %v: clients %d vs %d", p, len(w.Clients), len(g.Clients))
		}
		for a, n := range w.Clients {
			if g.Clients[a] != n {
				t.Fatalf("cluster %v client %v: %d vs %d", p, a, n, g.Clients[a])
			}
		}
	}
	if w, g := urlSignatures(t, want), urlSignatures(t, got); !maps.Equal(w, g) {
		t.Fatalf("URL sets differ: %d vs %d distinct cluster sets", len(w), len(g))
	}
	if len(want.Unclustered) != len(got.Unclustered) {
		t.Fatalf("unclustered: %d vs %d", len(want.Unclustered), len(got.Unclustered))
	}
	for a := range want.Unclustered {
		if _, ok := got.Unclustered[a]; !ok {
			t.Fatalf("unclustered client %v missing", a)
		}
	}
	if want.Coverage() != got.Coverage() {
		t.Fatalf("coverage: %g vs %g", want.Coverage(), got.Coverage())
	}
}

// urlSignatures describes r's URL sets without their ids: for each set of
// clusters, how many URLs exactly those clusters accessed. ClusterLog
// numbers URLs by the log's Resources, a stream pass in the order its
// scanner met them and a parallel pass by whichever worker saw a URL
// first, so two results' ids agree only up to a relabeling; one carries
// every cluster's URL set onto the other's exactly when these counts
// agree. Each cluster's URL set must hand out NumURLs distinct ids.
func urlSignatures(t *testing.T, r *StreamResult) map[string]int {
	t.Helper()
	prefixes := make([]netutil.Prefix, 0, len(r.Clusters))
	for p := range r.Clusters {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, netutil.ComparePrefix)
	byURL := make(map[int32][]byte)
	for i, p := range prefixes {
		c, n := r.Clusters[p], 0
		c.urls.each(func(u int32) {
			byURL[u] = binary.AppendUvarint(byURL[u], uint64(i))
			n++
		})
		if n != c.NumURLs() {
			t.Fatalf("cluster %v: URL set gave %d ids, NumURLs %d", p, n, c.NumURLs())
		}
	}
	sigs := make(map[string]int)
	for _, sig := range byURL {
		sigs[string(sig)]++
	}
	return sigs
}

// requireWorkersAgree runs clf through every worker count and asserts each
// result is the sequential pass's, and that pass ClusterLog's on l.
func requireWorkersAgree(t *testing.T, l *weblog.Log, c Clusterer, chunkBytes int) {
	t.Helper()
	clf := []byte(clfOf(t, l))
	want, err := ClusterStream(bytes.NewReader(clf), c)
	if err != nil {
		t.Fatal(err)
	}
	requireSameClusters(t, streamOf(ClusterLog(l, c)), want)
	for _, workers := range streamWorkers {
		got, err := streamWith(clf, c, workers, chunkBytes)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		requireSameStreamResult(t, want, got)
	}
}

func TestParallelMatchesSequentialOnPaperProfiles(t *testing.T) {
	na, logs := parSetup(t)
	nac := na.Compile()
	for _, l := range logs {
		t.Run(l.Name, func(t *testing.T) {
			requireWorkersAgree(t, l, nac, testChunkBytes)
		})
	}
}

func TestParallelMatchesSequentialBaselines(t *testing.T) {
	_, logs := parSetup(t)
	for _, c := range []Clusterer{Simple{}, Classful{}} {
		requireWorkersAgree(t, logs[0], c, testChunkBytes)
	}
}

func TestParallelAdversarialLogs(t *testing.T) {
	m := mergedTable("12.65.128.0/19", "24.48.2.0/23")
	na := NetworkAware{Table: m}.Compile()

	// All requests from one client: every worker tallies the same address,
	// and the merge must fold the partial counts into one client entry.
	var one [][2]string
	for i := 0; i < 3000; i++ {
		one = append(one, [2]string{"12.65.147.94", "/a"})
	}
	// All-unclusterable: the merge path that never touches a cluster.
	var unc [][2]string
	for i := 0; i < 3000; i++ {
		unc = append(unc, [2]string{"99.1.2.3", "/a"}, [2]string{"88.1.2.3", "/b"})
	}
	// Interleaved clusterable/unclusterable clients, in chunks of a line
	// or two: every worker sees every client.
	var mix [][2]string
	for i := 0; i < 2000; i++ {
		mix = append(mix,
			[2]string{"12.65.147.94", "/a"},
			[2]string{"99.1.2.3", "/a"},
			[2]string{"24.48.3.87", "/b"},
			[2]string{"88.1.2.3", "/b"},
		)
	}
	cases := []struct {
		name       string
		pairs      [][2]string
		chunkBytes int
	}{
		{"all-one-client", one, testChunkBytes},
		{"all-unclusterable", unc, testChunkBytes},
		{"interleaved", mix, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireWorkersAgree(t, logOf(tc.pairs...), na, tc.chunkBytes)
		})
	}
}

// TestParallelManyURLs runs a log of over 5,000 distinct URLs, so the
// clusters' URL sets spill past the bitmap into the overflow map, and a
// worker's ids on either side of 4,096 remap to the other side in the
// merge.
func TestParallelManyURLs(t *testing.T) {
	na := NetworkAware{Table: mergedTable("10.0.0.0/16", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/20")}.Compile()
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]string, 20000)
	for i := range pairs {
		client := fmt.Sprintf("10.%d.%d.%d", rng.Intn(4), rng.Intn(4), 1+rng.Intn(50))
		pairs[i] = [2]string{client, fmt.Sprintf("/u%d", rng.Intn(6000))}
	}
	l := logOf(pairs...)
	if len(l.Resources) < 5000 {
		t.Fatalf("log has %d distinct URLs, want at least 5,000", len(l.Resources))
	}
	requireWorkersAgree(t, l, na, testChunkBytes)
}

func TestParallelTinyLogFallsBackSequential(t *testing.T) {
	// A log shorter than two chunks runs on one worker and must still
	// produce the reference result.
	l := logOf([2]string{"12.65.147.94", "/a"}, [2]string{"99.1.2.3", "/b"})
	na := NetworkAware{Table: mergedTable("12.65.128.0/19")}
	got, err := ClusterStreamParallel(strings.NewReader(clfOf(t, l)), na, ParallelOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	requireSameClusters(t, streamOf(ClusterLog(l, na)), got)
}

func TestClusterStreamParallelMatchesSequential(t *testing.T) {
	// The public entry point at the real chunk size: the profiles back to
	// back, repeated until the input spans several chunks.
	na, logs := parSetup(t)
	nac := na.Compile()
	var buf bytes.Buffer
	for buf.Len() < 3*weblog.ChunkBytes {
		for _, l := range logs {
			if err := weblog.WriteCLF(&buf, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := ClusterStream(bytes.NewReader(buf.Bytes()), na)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range streamWorkers {
		got, err := ClusterStreamParallel(bytes.NewReader(buf.Bytes()), nac, ParallelOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		requireSameStreamResult(t, want, got)
	}
}

// requireSameError asserts every worker count fails on in exactly as the
// sequential pass does.
func requireSameError(t *testing.T, in []byte, chunkBytes int) {
	t.Helper()
	na := NetworkAware{Table: mergedTable("12.65.128.0/19")}
	_, want := ClusterStream(bytes.NewReader(in), na)
	if want == nil {
		t.Fatal("malformed stream must error")
	}
	for _, workers := range streamWorkers {
		if _, got := streamWith(in, na, workers, chunkBytes); got == nil || got.Error() != want.Error() {
			t.Fatalf("workers %d: error %v, want %v", workers, got, want)
		}
	}
}

// padLine pads s with spaces into a line as long as like.
func padLine(s, like string) string {
	return s + strings.Repeat(" ", len(like)-len(s)-1) + "\n"
}

const goodLine = "12.65.147.94 - - [13/Feb/1998:06:15:04 +0000] \"GET /a HTTP/1.0\" 200 100 \"-\" \"UA\"\n"

func TestClusterStreamParallelError(t *testing.T) {
	t.Run("malformed", func(t *testing.T) {
		requireSameError(t, []byte(goodLine+"not a log line\n"), testChunkBytes)
	})
	t.Run("earliest-chunk-wins", func(t *testing.T) {
		// A chunk per line: the failures in chunks 2 and 3 race, and the
		// one earlier in the stream is the answer.
		in := goodLine + padLine("bad two", goodLine) + padLine("bad three", goodLine) + strings.Repeat(goodLine, 50)
		requireSameError(t, []byte(in), len(goodLine))
	})
	t.Run("line-too-long", func(t *testing.T) {
		in := strings.Repeat(goodLine, 100) + strings.Repeat("x", 4<<20+1) + "\n" + goodLine
		requireSameError(t, []byte(in), testChunkBytes)
	})
	t.Run("truncated-gzip", func(t *testing.T) {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		zw.Write([]byte(strings.Repeat(goodLine, 500)))
		zw.Close()
		requireSameError(t, z.Bytes()[:z.Len()-9], testChunkBytes)
	})
}

// FuzzClusterStreamWorkers asserts the chunked engine answers exactly as
// the sequential pass for any input, chunk size and worker count: the
// same clusters and tallies, the same stats, or the same error.
func FuzzClusterStreamWorkers(f *testing.F) {
	const l1 = "1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] \"GET /a HTTP/1.0\" 200 10\n"
	const l2 = "12.65.147.94 - - [13/Feb/1998:06:15:05 +0100] \"GET /b HTTP/1.0\" 200 20 \"-\" \"UA\"\n"
	const l3 = "24.48.3.87 - - [13/Feb/1998:06:15:03 +0000] \"GET /a HTTP/1.0\" 304 -\n"
	// FuzzStreamCLF's corpus.
	f.Add([]byte(strings.TrimSuffix(l1, "\n")), uint16(16), uint8(1))
	f.Add([]byte(l1+"5.6.7.8 - - [13/Feb/1998:06:15:05 +0000] \"GET /b HTTP/1.0\" 200 20"), uint16(16), uint8(1))
	f.Add([]byte("\n"+l1+"\n \nbad\n"), uint16(8), uint8(2))
	// A record cut mid-line at a chunk boundary.
	f.Add([]byte(l1+l2+l3+l2), uint16(len(l1)+20), uint8(1))
	// CRLF split across a boundary.
	crlf := strings.ReplaceAll(l2+l3+l1, "\n", "\r\n")
	f.Add([]byte(crlf), uint16(strings.IndexByte(crlf, '\r')+1), uint8(2))
	// The latest instant in two zones, on either side of a boundary.
	f.Add([]byte(l1+strings.Replace(l1, "06:15:04 +0000", "07:15:04 +0100", 1)), uint16(len(l1)), uint8(1))
	// A run of blank lines on a boundary.
	f.Add([]byte(l2+"\n\n\n\n\n"+l3+l2), uint16(len(l2)+2), uint8(3))
	// Malformed lines in chunks 2 and 3: chunk 2's must win.
	f.Add([]byte(l1+padLine("bad two", l1)+padLine("bad three", l1)+l2), uint16(len(l1)-1), uint8(3))
	// Gzip input.
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte(strings.Repeat(l1+l2+l3, 20)))
	zw.Close()
	f.Add(z.Bytes(), uint16(100), uint8(3))
	// An over-long line.
	f.Add([]byte(l1+strings.Repeat("y", 4<<20)+"\n"+l2), uint16(1000), uint8(1))

	na := NetworkAware{Table: mergedTable("12.65.128.0/19", "24.48.2.0/23")}.Compile()
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16, workers uint8) {
		w := 1 + int(workers)%4
		want, wantErr := ClusterStream(bytes.NewReader(data), na)
		got, gotErr := streamWith(data, na, w, 1+int(chunk))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("workers %d, chunk %d: error %v, want %v", w, 1+int(chunk), gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("workers %d, chunk %d: error %q, want %q", w, 1+int(chunk), gotErr, wantErr)
			}
			return
		}
		requireSameStreamResult(t, want, got)
	})
}
