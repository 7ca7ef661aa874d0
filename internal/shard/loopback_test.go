package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// loopback is an http.RoundTripper that runs the addressed node's
// handler on the caller's goroutine: the router's fan-out without
// sockets. Allocation counts through it are exact (no connection
// goroutines), and a test can rewrite what a node "sent" before the
// router reads it — including things no net/http server can be made to
// send, such as a body longer than its Content-Length.
type loopback map[string]*loopNode // by URL host

// loopNode is one in-process node. It serves one request at a time.
type loopNode struct {
	handler http.Handler
	// tamper, when set, edits the response on its way out; resp.Body is
	// rebuilt from the bytes it returns.
	tamper func(resp *http.Response, body []byte) []byte

	w      loopWriter
	reader bytes.Reader
}

// loopWriter is the least http.ResponseWriter: it keeps the status, the
// header map and the body, reusing the body buffer between requests.
type loopWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *loopWriter) Header() http.Header { return w.header }

func (w *loopWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *loopWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *loopWriter) reset() {
	clear(w.header)
	w.code, w.body = 0, w.body[:0]
}

func (l loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	n := l[req.URL.Host]
	if n == nil {
		return nil, fmt.Errorf("loopback: no node at %q", req.URL.Host)
	}
	if n.w.header == nil {
		n.w.header = make(http.Header)
	}
	n.w.reset()
	n.handler.ServeHTTP(&n.w, req)
	resp := &http.Response{
		StatusCode:    n.w.code,
		Status:        strconv.Itoa(n.w.code) + " " + http.StatusText(n.w.code),
		Header:        n.w.header,
		ContentLength: -1,
		Request:       req,
	}
	if cl, err := strconv.ParseInt(n.w.header.Get("Content-Length"), 10, 64); err == nil {
		resp.ContentLength = cl
	}
	body := n.w.body
	if n.tamper != nil {
		body = n.tamper(resp, body)
	}
	n.reader.Reset(body)
	resp.Body = io.NopCloser(&n.reader)
	return resp, nil
}
