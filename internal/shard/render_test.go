package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// encodeJSON is the reference every append renderer must equal byte for
// byte: what the handlers wrote before, json.NewEncoder(w).Encode(v).
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceRouted builds the RouterBatchResponse the way BatchCtx did
// when it merged decoded BatchResponse structs.
func referenceRouted(m *Map, addrs []netutil.Addr, rows []bgp.Match, reports []ShardReport) *RouterBatchResponse {
	resp := &RouterBatchResponse{MapVersion: m.Version, Results: make([]RouterResult, len(addrs)), Shards: reports}
	for i, a := range addrs {
		sid := m.ShardFor(a)
		if rep := reports[sid]; rep.Error != "" {
			resp.Results[i] = RouterResult{LookupResult: LookupResult{Addr: a.String()}, Shard: sid, Error: rep.Error}
		} else {
			resp.Results[i] = RouterResult{LookupResult: ResolveMatch(a, rows[i], rep.Generation), Shard: sid}
		}
	}
	for _, rep := range reports {
		if rep.Error != "" {
			if resp.Degradation == nil {
				resp.Degradation = make(map[string]string)
			}
			resp.Degradation[strconv.Itoa(rep.ID)] = rep.Error
		} else if rep.Generation > resp.Generation {
			resp.Generation = rep.Generation
		}
	}
	return resp
}

// checkRenderings holds all three renderers, and BatchCtx's struct
// rendering, to the encoding/json reference for one batch.
func checkRenderings(t testing.TB, m *Map, addrs []netutil.Addr, rows []bgp.Match, reports []ShardReport, gen uint64) {
	t.Helper()
	results := make([]LookupResult, len(addrs))
	for i, a := range addrs {
		results[i] = ResolveMatch(a, rows[i], gen)
		if got, want := AppendLookupJSON(nil, a, rows[i], gen), encodeJSON(t, results[i]); !bytes.Equal(got, want) {
			t.Fatalf("LookupResult:\n got %s\nwant %s", got, want)
		}
	}
	got := AppendBatchJSON([]byte("kept"), addrs, rows, gen)
	if want := append([]byte("kept"), encodeJSON(t, BatchResponse{Generation: gen, Results: results})...); !bytes.Equal(got, want) {
		t.Fatalf("BatchResponse:\n got %s\nwant %s", got, want)
	}

	want := encodeJSON(t, referenceRouted(m, addrs, rows, reports))
	if got := appendRoutedJSON(nil, m, addrs, rows, reports); !bytes.Equal(got, want) {
		t.Fatalf("RouterBatchResponse:\n got %s\nwant %s", got, want)
	}
	sc := &scratch{rows: rows, reports: reports}
	if got := encodeJSON(t, sc.routedResponse(m, addrs)); !bytes.Equal(got, want) {
		t.Fatalf("BatchCtx rendering:\n got %s\nwant %s", got, want)
	}
}

// reportsFor counts addrs per shard of m into fresh reports.
func reportsFor(m *Map, addrs []netutil.Addr) []ShardReport {
	reports := make([]ShardReport, len(m.Shards))
	for i := range reports {
		reports[i] = ShardReport{ID: i, Addr: "http://node" + strconv.Itoa(i) + ":8349"}
	}
	for _, a := range addrs {
		reports[m.ShardFor(a)].Addrs++
	}
	return reports
}

// hostile holds every class of byte appendJSONString treats specially.
var hostile = []string{
	`<script>alert("x")</script> & more`,
	`back\slash "quoted"`,
	"invalid utf-8 \xff\xfe\xc3( end",
	"line sep\u2028para sep\u2029",
	"controls \x00\x01\x1f\b\f\n\r\t\x7f",
	"h\u00e9llo \u2603 \U0001F600 \ufffd",
	`Post "http://127.0.0.1:1/cluster": dial tcp 127.0.0.1:1: connect: connection refused`,
	"",
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) bool {
		want := encodeJSON(t, s)
		return bytes.Equal(append(appendJSONString(nil, s), '\n'), want)
	}
	for _, s := range hostile {
		if !check(s) {
			t.Errorf("%q renders as %s, encoding/json as %s", s, appendJSONString(nil, s), encodeJSON(t, s))
		}
	}
	if err := quick.Check(func(raw []byte, s string) bool { return check(string(raw)) && check(s) }, nil); err != nil {
		t.Error(err)
	}
}

func TestRenderersMatchEncodingJSON(t *testing.T) {
	top := netutil.MustParseAddr("255.255.255.255")

	// Every prefix length (/0 being the miss), both known kinds, a kind
	// no table can hold, misses, and the generation extremes, through a
	// healthy 3-shard map.
	var addrs []netutil.Addr
	var rows []bgp.Match
	for bits := 0; bits <= 32; bits++ {
		addrs = append(addrs, top)
		rows = append(rows, bgp.Match{Prefix: netutil.PrefixFrom(top, bits), Kind: bgp.SourceKind(bits % 2)})
	}
	addrs = append(addrs, 0, 1, netutil.MustParseAddr("99.99.99.99"), netutil.MustParseAddr("12.65.147.94"))
	rows = append(rows, bgp.Match{}, bgp.Match{Prefix: netutil.PrefixFrom(0, 5)}, bgp.Match{},
		bgp.Match{Prefix: netutil.MustParsePrefix("12.65.128.0/19"), Kind: 7})
	for _, gen := range []uint64{0, 1, 1 << 40, math.MaxUint64} {
		m := NewMap(3)
		reports := reportsFor(m, addrs)
		for i := range reports {
			reports[i].Generation = gen - uint64(i)
		}
		checkRenderings(t, m, addrs, rows, reports, gen)
	}

	// Empty batches: no rows, every shard reported idle.
	checkRenderings(t, NewMap(1), nil, nil, reportsFor(NewMap(1), nil), 0)
	checkRenderings(t, NewMap(4), []netutil.Addr{}, []bgp.Match{}, reportsFor(NewMap(4), nil), 5)

	// Degradation: twelve shards so the map keys "10" and "11" sort
	// before "2", hostile error strings on the failed ones, a hostile
	// node address, and rows of failed shards that must render as the
	// zero answer whatever rows[] holds.
	m := NewMap(12)
	m.Version = 9
	addrs, rows = nil, nil
	for i := 0; i < 48; i++ {
		a := netutil.Addr(uint32(i)*0x05555555 + 7)
		addrs = append(addrs, a)
		rows = append(rows, bgp.Match{Prefix: netutil.PrefixFrom(a, 8+i%25), Kind: bgp.SourceKind(i % 2)})
	}
	reports := reportsFor(m, addrs)
	for i, sid := range []int{2, 10, 11, 5} {
		reports[sid].Error = hostile[i]
	}
	reports[3].Addr = `http://<node>&"3"`
	for i := range reports {
		if reports[i].Error == "" {
			reports[i].Generation = uint64(100 + i)
		}
	}
	checkRenderings(t, m, addrs, rows, reports, 100)
}

func TestRenderersMatchEncodingJSONQuick(t *testing.T) {
	prop := func(raw []uint32, shards uint8, gen uint64, failing []byte, errText []byte) bool {
		m := NewMap(int(shards)%16 + 1)
		addrs := make([]netutil.Addr, len(raw))
		rows := make([]bgp.Match, len(raw))
		for i, v := range raw {
			addrs[i] = netutil.Addr(v)
			if bits := int(v>>3) % 34; bits <= 32 && v%5 != 0 {
				rows[i] = bgp.Match{Prefix: netutil.PrefixFrom(addrs[i], bits), Kind: bgp.SourceKind(v % 3)}
			}
		}
		reports := reportsFor(m, addrs)
		for i := range reports {
			reports[i].Generation = gen + uint64(i)
		}
		for i, b := range failing {
			rep := &reports[int(b)%len(reports)]
			rep.Generation, rep.Error = 0, "shard error "+strconv.Itoa(i)+": "+string(errText)
		}
		checkRenderings(t, m, addrs, rows, reports, gen)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
