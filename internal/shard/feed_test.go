package shard

import (
	"context"
	"net/http/httptest"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/netutil"
)

// feedWorld builds a small authoritative table for feed tests.
func feedWorld() *churn.Table {
	m := bgp.NewMerged()
	m.Add(&bgp.Snapshot{Name: "AADS", Kind: bgp.SourceBGP, Entries: []bgp.Entry{
		{Prefix: netutil.MustParsePrefix("10.0.0.0/8")},
		{Prefix: netutil.MustParsePrefix("200.0.0.0/8")},
	}})
	return churn.New(m)
}

func announce(p string) bgp.Delta {
	return bgp.Delta{Source: "test", Ops: []bgp.Op{
		{Kind: bgp.SourceBGP, Entry: bgp.Entry{Prefix: netutil.MustParsePrefix(p)}},
	}}
}

func TestFeedSequenceTracksGeneration(t *testing.T) {
	f := NewFeed(feedWorld(), 0)
	if f.Head() != 0 {
		t.Fatalf("fresh feed head = %d", f.Head())
	}
	for i := 1; i <= 5; i++ {
		st, seq := f.Apply(announce("10.1.0.0/16"))
		if st.Generation != uint64(i) || seq != uint64(i) {
			t.Fatalf("apply %d: generation %d, seq %d", i, st.Generation, seq)
		}
	}
	if f.table.Generation() != 5 || f.Head() != 5 {
		t.Fatalf("after 5 applies: table gen %d, head %d", f.table.Generation(), f.Head())
	}
}

func TestFollowerLockstep(t *testing.T) {
	feed := NewFeed(feedWorld(), 0)
	srv := httptest.NewServer(feed.Handler())
	defer srv.Close()

	fl, err := Join(srv.URL, srv.Client(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Seq() != 0 || fl.Table.Generation() != 0 {
		t.Fatalf("join: seq %d, gen %d", fl.Seq(), fl.Table.Generation())
	}

	for i := 0; i < 7; i++ {
		feed.Apply(announce("10.2.0.0/16"))
	}
	n, err := fl.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 || fl.Seq() != 7 || fl.Table.Generation() != 7 {
		t.Fatalf("step applied %d, seq %d, gen %d; want 7 everywhere", n, fl.Seq(), fl.Table.Generation())
	}
	if m, ok := fl.Table.Lookup(netutil.MustParseAddr("10.2.3.4")); !ok || m.Prefix.String() != "10.2.0.0/16" {
		t.Fatalf("follower table missing streamed prefix: %+v %v", m, ok)
	}
	// Caught up: the next step is a no-op.
	if n, err := fl.Step(context.Background()); err != nil || n != 0 {
		t.Fatalf("caught-up step = %d, %v", n, err)
	}
}

func TestFollowerFilteredLockstep(t *testing.T) {
	feed := NewFeed(feedWorld(), 0)
	srv := httptest.NewServer(feed.Handler())
	defer srv.Close()

	m := NewMap(2) // shard 1 owns blocks 128..255
	fl, err := Join(srv.URL, srv.Client(), m.Keep(1))
	if err != nil {
		t.Fatal(err)
	}

	feed.Apply(announce("10.3.0.0/16"))  // filtered out for shard 1
	feed.Apply(announce("200.3.0.0/16")) // kept
	if _, err := fl.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Both deltas advance the generation — lockstep — but only the owned
	// prefix lands in the table.
	if fl.Table.Generation() != 2 {
		t.Fatalf("filtered follower gen = %d, want 2", fl.Table.Generation())
	}
	if _, ok := fl.Table.Lookup(netutil.MustParseAddr("10.3.1.1")); ok {
		t.Fatal("filtered-out prefix matched on the shard")
	}
	if m, ok := fl.Table.Lookup(netutil.MustParseAddr("200.3.1.1")); !ok || m.Prefix.String() != "200.3.0.0/16" {
		t.Fatalf("owned prefix missing: %+v %v", m, ok)
	}
}

func TestFeedCatchUpFromSnapshotAfterLogTrim(t *testing.T) {
	feed := NewFeed(feedWorld(), 4) // tiny retained log
	srv := httptest.NewServer(feed.Handler())
	defer srv.Close()

	fl, err := Join(srv.URL, srv.Client(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Publish far past the retention window while the follower sleeps.
	for i := 0; i < 20; i++ {
		feed.Apply(announce("10.4.0.0/16"))
	}
	// First step hits 410 Gone and resyncs from the snapshot.
	if _, err := fl.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fl.Seq() != 20 || fl.Table.Generation() != 20 {
		t.Fatalf("after resync: seq %d, gen %d, want 20", fl.Seq(), fl.Table.Generation())
	}
	if m, ok := fl.Table.Lookup(netutil.MustParseAddr("10.4.0.1")); !ok || m.Prefix.String() != "10.4.0.0/16" {
		t.Fatalf("resynced table wrong: %+v %v", m, ok)
	}
}

func TestFeedSnapshotSeqConsistent(t *testing.T) {
	feed := NewFeed(feedWorld(), 0)
	feed.Apply(announce("10.5.0.0/16"))

	data, seq, err := feed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("snapshot seq = %d, want 1", seq)
	}
	c, err := bgp.ReadTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := c.Lookup(netutil.MustParseAddr("10.5.0.1")); !ok || m.Prefix.String() != "10.5.0.0/16" {
		t.Fatalf("snapshot at seq 1 missing delta 1: %+v %v", m, ok)
	}
	// Cache: same head, same bytes.
	data2, seq2, _ := feed.Snapshot()
	if seq2 != seq || &data[0] != &data2[0] {
		t.Fatal("snapshot at an unchanged head was re-marshaled")
	}
	// New publish invalidates.
	feed.Apply(announce("10.6.0.0/16"))
	_, seq3, _ := feed.Snapshot()
	if seq3 != 2 {
		t.Fatalf("snapshot after publish = seq %d, want 2", seq3)
	}
}

func TestFeedDeltasHTTPValidation(t *testing.T) {
	feed := NewFeed(feedWorld(), 0)
	feed.Apply(announce("10.7.0.0/16"))
	srv := httptest.NewServer(feed.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		url  string
		code int
	}{
		{DeltasPath, 400},             // missing from
		{DeltasPath + "?from=x", 400}, // bad from
		{DeltasPath + "?from=0&max=0", 400},
		{DeltasPath + "?from=9", 410}, // ahead of head: stream restart, re-join
		{DeltasPath + "?from=0", 200},
		{DeltasPath + "?from=1", 200}, // caught up: empty delta list
		{SnapshotPath, 200},
		{StatusPath, 200},
	} {
		resp, err := srv.Client().Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.code)
		}
	}
}
