package shard

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/netaware/netcluster/internal/netutil"
)

// LookupAddr reads the addr parameter of a GET /lookup request. A missing
// or malformed address is answered 400 here; the error comes back so the
// caller can fail its span and return.
func LookupAddr(w http.ResponseWriter, r *http.Request) (netutil.Addr, error) {
	q := queryValue(r, "addr")
	addr, err := netutil.ParseAddr(q)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad addr %q: %v", q, err), http.StatusBadRequest)
	}
	return addr, err
}

// queryValue is r.URL.Query().Get(key) without the url.Values map: a
// query string that holds nothing to unescape or reject is scanned in
// place, anything else takes the standard parser.
func queryValue(r *http.Request, key string) string {
	q := r.URL.RawQuery
	if strings.ContainsAny(q, "%+;") {
		return r.URL.Query().Get(key)
	}
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if k, v, _ := strings.Cut(pair, "="); k == key && pair != "" {
			return v
		}
	}
	return ""
}
