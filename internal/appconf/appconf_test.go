package appconf

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type tuning struct {
	MaxInflight int      `json:"max_inflight"`
	Every       Duration `json:"every"`
}

func parseTuning(data []byte) (tuning, error) {
	var t tuning
	if err := json.Unmarshal(data, &t); err != nil {
		return t, err
	}
	if t.MaxInflight <= 0 {
		return t, errors.New("max_inflight must be positive")
	}
	return t, nil
}

func writeConfig(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWatchInitialLoadAndPollPickup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conf.json")
	writeConfig(t, path, `{"max_inflight": 4, "every": "2s"}`)

	var swaps atomic.Int32
	w, err := Watch(path, parseTuning, Options[tuning]{
		PollInterval: 5 * time.Millisecond,
		OnSwap:       func(old, new *Loaded[tuning]) { swaps.Add(1) },
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	cur := w.Current()
	if cur.Generation != 1 || cur.Config.MaxInflight != 4 || cur.Config.Every.Std() != 2*time.Second {
		t.Fatalf("initial load = %+v", cur)
	}
	if w.LastError() != nil {
		t.Fatal("fresh watcher not healthy")
	}

	writeConfig(t, path, `{"max_inflight": 9, "every": "50ms"}`)
	deadline := time.Now().Add(2 * time.Second)
	for w.Generation() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cur = w.Current()
	if cur.Generation != 2 || cur.Config.MaxInflight != 9 {
		t.Fatalf("poll never picked up the edit: %+v", cur)
	}
	if n := swaps.Load(); n < 2 {
		t.Fatalf("OnSwap ran %d times, want >= 2", n)
	}
}

func TestWatchRejectsInvalidInitialConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conf.json")
	writeConfig(t, path, `{"max_inflight": 0}`)
	if _, err := Watch(path, parseTuning, Options[tuning]{}); err == nil {
		t.Fatal("invalid initial config accepted")
	}
	if _, err := Watch(filepath.Join(t.TempDir(), "missing.json"), parseTuning, Options[tuning]{}); err == nil {
		t.Fatal("missing initial config accepted")
	}
}

func TestWatchKeepsOldGenerationOnInvalidEdit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conf.json")
	writeConfig(t, path, `{"max_inflight": 4}`)
	w, err := Watch(path, parseTuning, Options[tuning]{PollInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	writeConfig(t, path, `{"max_inflight": -1}`)
	swapped, rerr := w.Reload()
	if swapped || rerr == nil {
		t.Fatalf("invalid edit: swapped=%v err=%v", swapped, rerr)
	}
	if w.LastError() == nil {
		t.Fatal("rejection not remembered")
	}
	cur := w.Current()
	if cur.Generation != 1 || cur.Config.MaxInflight != 4 {
		t.Fatalf("old generation disturbed: %+v", cur)
	}

	// Fixing the file restores health and advances the generation.
	writeConfig(t, path, `{"max_inflight": 7}`)
	swapped, rerr = w.Reload()
	if !swapped || rerr != nil {
		t.Fatalf("fixed edit: swapped=%v err=%v", swapped, rerr)
	}
	if st := w.Status(); st.Err != nil || st.Generation != 2 || st.Path != path {
		t.Fatalf("recovery: status %+v", st)
	}
}

func TestReloadUnchangedContentIsNoSwap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conf.json")
	writeConfig(t, path, `{"max_inflight": 4}`)
	w, err := Watch(path, parseTuning, Options[tuning]{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Forced reload of identical bytes: accepted, new generation (the
	// SIGHUP contract — the operator asked, the watcher obliges).
	if swapped, err := w.Reload(); err != nil || !swapped {
		t.Fatalf("forced reload: swapped=%v err=%v", swapped, err)
	}
}

func TestHandlerRendersGenerationAndErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conf.json")
	writeConfig(t, path, `{"max_inflight": 4}`)
	w, err := Watch(path, parseTuning, Options[tuning]{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/config", nil))
	var body struct {
		Generation uint64 `json:"generation"`
		Path       string `json:"path"`
		Config     tuning `json:"config"`
		LastError  string `json:"last_error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Generation != 1 || body.Path != path || body.Config.MaxInflight != 4 || body.LastError != "" {
		t.Fatalf("handler body = %+v", body)
	}

	writeConfig(t, path, `not json`)
	w.Reload()
	rec = httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/config", nil))
	if !strings.Contains(rec.Body.String(), "last_error") {
		t.Fatalf("rejected reload missing from handler: %s", rec.Body.String())
	}
}

func TestDurationJSON(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{`"2s"`, 2 * time.Second, true},
		{`"150ms"`, 150 * time.Millisecond, true},
		{`1000000`, time.Millisecond, true},
		{`"soon"`, 0, false},
		{`true`, 0, false},
	}
	for _, c := range cases {
		var d Duration
		err := json.Unmarshal([]byte(c.in), &d)
		if (err == nil) != c.ok || (c.ok && d.Std() != c.want) {
			t.Errorf("Unmarshal(%s) = %v, %v; want %v ok=%v", c.in, d.Std(), err, c.want, c.ok)
		}
	}
	out, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(out) != `"1m30s"` {
		t.Errorf("Marshal = %s, %v", out, err)
	}
}

func TestWatcherConcurrentReadersDuringSwap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conf.json")
	writeConfig(t, path, `{"max_inflight": 1}`)
	w, err := Watch(path, parseTuning, Options[tuning]{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 2; i <= 20; i++ {
			writeConfig(t, path, fmt.Sprintf(`{"max_inflight": %d}`, i))
			w.Reload()
		}
	}()
	for {
		select {
		case <-done:
			if got := w.Current().Config.MaxInflight; got != 20 {
				t.Fatalf("final config = %d, want 20", got)
			}
			return
		default:
			cur := w.Current()
			if cur.Config.MaxInflight < 1 || cur.Config.MaxInflight > 20 {
				t.Fatalf("reader saw torn config: %+v", cur)
			}
		}
	}
}

// Handler serves the live generation as JSON: the generation number,
// source path, load time, the rendered config, and the last rejected
// reload (if any).
func (w *Watcher[T]) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		cur := w.Current()
		body := struct {
			Generation  uint64     `json:"generation"`
			Path        string     `json:"path"`
			LoadedAt    time.Time  `json:"loaded_at"`
			Config      any        `json:"config"`
			LastError   string     `json:"last_error,omitempty"`
			LastErrorAt *time.Time `json:"last_error_at,omitempty"`
		}{
			Generation: cur.Generation,
			Path:       cur.Path,
			LoadedAt:   cur.LoadedAt,
			Config:     cur.Config,
		}
		if le := w.lastErr.Load(); le != nil {
			body.LastError = le.Err.Error()
			t := le.When
			body.LastErrorAt = &t
		}
		rw.Header().Set("Content-Type", "application/json")
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(body); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		rw.Write(buf.Bytes())
	})
}
