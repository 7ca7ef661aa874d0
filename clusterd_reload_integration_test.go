package netcluster_test

// Hot-reload integration test of clusterd's config plane: a watched
// config file retunes admission limits on a live process under
// concurrent traffic — zero failed lookups, in-flight batches unharmed —
// while invalid edits (an unknown key, and the retired "sinks" key) are
// rejected with the previous generation serving and readiness flipped
// false. SIGHUP applies a fixed file at once, and SIGTERM drains cleanly.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestClusterdConfigHotReload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "clusterd.json")

	writeCfg := func(body string) {
		t.Helper()
		if err := os.WriteFile(cfgPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Generation 1: one admission slot.
	writeCfg(`{"max_inflight": 1}`)

	cmd := exec.Command(filepath.Join(buildTools(t), "clusterd"),
		"-addr", "127.0.0.1:0",
		"-ases", "120",
		"-seed", "7",
		"-churn-every", "300ms",
		"-max-inflight", "4", // shadowed by the config file: warn expected
		"-config", cfgPath,
		"-config-poll", "100ms")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stderr)
	base := ""
	var head strings.Builder
	for sc.Scan() {
		line := sc.Text()
		head.WriteString(line + "\n")
		if i := strings.Index(line, "serving on http://"); i >= 0 {
			base = "http://" + strings.Fields(line[i+len("serving on http://"):])[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("clusterd never announced its address:\n%s", head.String())
	}
	drained := make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
		drained <- rest.String()
	}()

	// The config file's max_inflight shadows the explicit -max-inflight
	// flag, and says so.
	if !strings.Contains(head.String(), "config_shadows_flag") || !strings.Contains(head.String(), "max_inflight") {
		t.Errorf("no structured shadow warning for max_inflight:\n%s", head.String())
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	type debugConfig struct {
		Generation uint64 `json:"generation"`
		Effective  struct {
			MaxInflight int `json:"max_inflight"`
		} `json:"effective"`
		LastError string `json:"last_error"`
	}
	readConfig := func() debugConfig {
		t.Helper()
		_, body := get("/debug/config")
		var dc debugConfig
		if err := json.Unmarshal(body, &dc); err != nil {
			t.Fatalf("/debug/config: %v\n%s", err, body)
		}
		return dc
	}
	waitGeneration := func(want uint64) debugConfig {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			dc := readConfig()
			if dc.Generation >= want {
				return dc
			}
			if time.Now().After(deadline) {
				t.Fatalf("generation stuck at %d, want %d", dc.Generation, want)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	if dc := readConfig(); dc.Generation != 1 || dc.Effective.MaxInflight != 1 {
		t.Fatalf("initial config generation: %+v", dc)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz at startup: %d %s", code, body)
	}

	// Concurrent traffic for the whole reload sequence. Lookups must
	// never fail; batches may see 503 backpressure (that is the admission
	// control working) but never any other failure.
	var lookupFails, batchFails atomic.Int64
	stopTraffic := make(chan struct{})
	var traffic sync.WaitGroup
	for w := 0; w < 3; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				addr := fmt.Sprintf("10.%d.%d.%d", w, i%250+1, i%200+1)
				resp, err := client.Get(base + "/lookup?addr=" + addr)
				if err != nil {
					lookupFails.Add(1)
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						lookupFails.Add(1)
					}
				}
				resp, err = client.Post(base+"/cluster", "text/plain", strings.NewReader(addr+"\n"))
				if err != nil {
					batchFails.Add(1)
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
						batchFails.Add(1)
					}
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(w)
	}

	// Hold a batch in flight across the reload: it must complete
	// untouched on the old limits.
	heldBody, heldWriter := io.Pipe()
	heldDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/cluster", "text/plain", heldBody)
		if err != nil {
			heldDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		heldDone <- resp.StatusCode
	}()
	heldWriter.Write([]byte("10.9.9.9\n"))

	// Generation 2 (picked up by the poller): raise the admission limit.
	writeCfg(`{"max_inflight": 8}`)
	dc := waitGeneration(2)
	if dc.Effective.MaxInflight != 8 {
		t.Fatalf("generation 2 effective: %+v", dc)
	}

	// The held batch (admitted under generation 1) finishes fine.
	heldWriter.Write([]byte("10.9.9.10\n"))
	heldWriter.Close()
	select {
	case code := <-heldDone:
		if code != http.StatusOK {
			t.Fatalf("batch held across reload finished %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch held across reload never finished")
	}

	// Generation 3 attempt: invalid (unknown key). Rejected — the live
	// generation keeps serving, readiness flips false with the reason.
	writeCfg(`{"max_inflight": 16, "max_inflate": true}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := get("/readyz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped false on an invalid config")
		}
		time.Sleep(50 * time.Millisecond)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "config rejected") {
		t.Fatalf("readyz during invalid config: %d %s", code, body)
	}
	dc = readConfig()
	if dc.Generation != 2 || dc.Effective.MaxInflight != 8 || dc.LastError == "" {
		t.Fatalf("invalid edit disturbed the live generation: %+v", dc)
	}
	// Liveness is unaffected: /healthz stays 200 throughout.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz went %d during a rejected reload", code)
	}

	// A second attempt names the retired push exporters. Strict decoding
	// rejects it the same way: generation 2 keeps serving.
	writeCfg(`{"max_inflight": 16, "sinks": [{"name": "push", "type": "http", "endpoint": "http://127.0.0.1:1"}]}`)
	deadline = time.Now().Add(10 * time.Second)
	for {
		dc = readConfig()
		if strings.Contains(dc.LastError, `"sinks"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a config naming sinks was never rejected: %+v", dc)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if dc.Generation != 2 || dc.Effective.MaxInflight != 8 {
		t.Fatalf("the sinks edit disturbed the live generation: %+v", dc)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(string(body), "config rejected") {
		t.Fatalf("readyz during the sinks edit: %d %s", code, body)
	}

	// Fix the file via SIGHUP (no waiting on the poller): generation 3
	// lands, readiness recovers.
	writeCfg(`{"max_inflight": 8}`)
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitGeneration(3)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if code, _ := get("/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never recovered after the config was fixed")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stop traffic, then drain.
	close(stopTraffic)
	traffic.Wait()
	if n := lookupFails.Load(); n != 0 {
		t.Errorf("%d lookups failed across the reload sequence, want 0", n)
	}
	if n := batchFails.Load(); n != 0 {
		t.Errorf("%d batches failed (non-200/503) across the reload sequence, want 0", n)
	}

	// Collect the stderr tail before cmd.Wait: Wait closes the pipe once
	// the child exits, racing the scanner out of the final drain lines.
	// EOF on the pipe implies the child has exited.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail string
	select {
	case tail = <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("clusterd did not exit within 20s of SIGTERM")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clusterd exited non-zero: %v\n%s", err, tail)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("clusterd did not exit within 20s of SIGTERM")
	}
	if !strings.Contains(tail, "drained at generation") {
		t.Fatalf("drain did not finish:\n%s", tail)
	}
}
