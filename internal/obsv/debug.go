package obsv

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
)

// Operational export: the Default registry publishes itself under the
// expvar key "netcluster", so any /debug/vars endpoint (including the
// one DebugHandler serves) carries a full snapshot; WriteFile dumps the
// same snapshot as a JSON file for batch tools (-metrics-out flags).

func init() {
	expvar.Publish("netcluster", expvar.Func(func() any { return TakeSnapshot() }))
}

// DebugHandler returns the debug mux an operational listener serves:
// /debug/vars (expvar JSON, including the "netcluster" snapshot),
// /metrics (Prometheus text exposition of the same registry, with
// histogram buckets and derived quantiles), /metrics.json (the raw
// snapshot for machine consumers such as the cluster metrics
// aggregator), /debug/trace (the flight
// recorder as Chrome trace_event JSON), and the /debug/pprof endpoints.
// cmd/clusterd and cmd/clusterrouter mount it on their serving listener;
// any embedder can mount it on a private one.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/metrics.json", SnapshotHandler())
	mux.Handle("/debug/trace", TraceHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MetricsHandler serves the Default registry as a Prometheus text
// exposition page.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		var buf bytes.Buffer
		if err := WritePrometheusText(&buf, TakeSnapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(buf.Bytes())
	})
}

// SnapshotHandler serves the Default registry snapshot as JSON — the
// machine-readable twin of /metrics, and the endpoint a cluster
// metrics aggregator (shard.Aggregator) pulls from each node.
func SnapshotHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := TakeSnapshot().MarshalIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
}

// TraceHandler serves the Default flight recorder as a Chrome
// trace_event JSON document, ready to save and load in chrome://tracing
// or Perfetto.
func TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="netcluster-trace.json"`)
		WriteChromeTrace(w, DefaultRing.Snapshot())
	})
}

// MarshalJSON renders a snapshot as indented, key-sorted JSON.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteFile atomically writes the Default registry's snapshot as JSON to
// path (temp file + rename, so a crash mid-write never truncates an
// existing snapshot).
func WriteFile(path string) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		data, err := TakeSnapshot().MarshalIndent()
		if err != nil {
			return fmt.Errorf("obsv: marshaling snapshot: %w", err)
		}
		data = append(data, '\n')
		_, err = w.Write(data)
		return err
	})
}

// writeFileAtomic streams fill into a temp file in path's directory and
// renames it into place, so readers never observe a partial file.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".obsv-*")
	if err != nil {
		return fmt.Errorf("obsv: writing %s: %w", path, err)
	}
	if err := fill(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("obsv: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obsv: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obsv: writing %s: %w", path, err)
	}
	return nil
}
