package shard

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"testing/quick"
)

func queryRequest(rawQuery string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/lookup", RawQuery: rawQuery}}
}

func TestQueryValue(t *testing.T) {
	for _, tc := range []struct{ query, want string }{
		{"", ""},
		{"addr", ""},
		{"addr=", ""},
		{"addr=1.2.3.4", "1.2.3.4"},
		{"addr=1.2.3.4&addr=5.6.7.8", "1.2.3.4"},
		{"k=20&verbose&addr=1.2.3.4", "1.2.3.4"},
		{"&&addr=1.2.3.4&", "1.2.3.4"},
		{"xaddr=9.9.9.9&addr=1.2.3.4", "1.2.3.4"},
		{"addrx=9.9.9.9", ""},
		{"addr=1.2.3.4=5", "1.2.3.4=5"},
		{"=addr&addr=1.2.3.4", "1.2.3.4"},
		{"ADDR=1.2.3.4", ""},
		// What needs unescaping, or the standard parser's judgement, gets it.
		{"addr=%31.2.3.4", "1.2.3.4"},
		{"%61ddr=1.2.3.4", "1.2.3.4"},
		{"addr=1.2.3.4+", "1.2.3.4 "},
		{"addr=1.2.3%", ""},
		{"a=1;addr=1.2.3.4", ""},
		{"a=1;b&addr=1.2.3.4", "1.2.3.4"},
	} {
		r := queryRequest(tc.query)
		if got := queryValue(r, "addr"); got != tc.want || got != r.URL.Query().Get("addr") {
			t.Errorf("%q: addr = %q, want %q (url.Values: %q)", tc.query, got, tc.want, r.URL.Query().Get("addr"))
		}
	}
}

// TestQueryValueMatchesURLValues: on any query string the in-place scan
// and url.Values agree. The strings are drawn from the characters that
// give a query its structure, so most of them exercise it.
func TestQueryValueMatchesURLValues(t *testing.T) {
	const alphabet = "adr=&=&%+;.12 x"
	same := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := make([]byte, n%40)
		for i := range q {
			q[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(2) == 0 {
			q = append(q, "&addr=1.2.3.4"...)
		}
		r := queryRequest(string(q))
		for _, key := range []string{"addr", "a", ""} {
			if got, want := queryValue(r, key), r.URL.Query().Get(key); got != want {
				t.Logf("%q: %q = %q, url.Values says %q", q, key, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupAddr(t *testing.T) {
	rec := httptest.NewRecorder()
	addr, err := LookupAddr(rec, queryRequest("k=1&addr=10.9.8.7"))
	if err != nil || addr.String() != "10.9.8.7" || rec.Body.Len() != 0 {
		t.Fatalf("LookupAddr = %s, %v, wrote %q", addr, err, rec.Body)
	}
	for _, q := range []string{"", "addr=", "addr=10.9.8", "addr=ten"} {
		rec := httptest.NewRecorder()
		if _, err := LookupAddr(rec, queryRequest(q)); err == nil || rec.Code != http.StatusBadRequest {
			t.Fatalf("%q: %v, answered %d", q, err, rec.Code)
		}
	}
	if raceEnabled {
		return
	}
	r, w := queryRequest("addr=10.9.8.7"), httptest.NewRecorder()
	if allocs := testing.AllocsPerRun(100, func() { LookupAddr(w, r) }); allocs != 0 {
		t.Fatalf("reading a plain addr parameter allocates %.0f times", allocs)
	}
}
