package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The serving workloads measure the real clusterd and clusterrouter
// binaries from outside: built once per run into the checkout's build
// directory, started on :0, found by the address they announce on stderr,
// accounted through /proc and their own debug endpoints, and killed and
// reaped however the run ends.

const buildDirName = ".bench_build"

// findRoot walks up from the working directory to the module that holds
// cmd/clusterd; `go run -C benchmark .` starts one level below it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "clusterd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no netcluster module (go.mod + cmd/clusterd) above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles clusterd and clusterrouter into root's build
// directory. The go build cache makes every call after the first a
// staleness check.
func buildBinaries(root string) (binDir string, err error) {
	binDir = filepath.Join(root, buildDirName, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/clusterd", "./cmd/clusterrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binDir, nil
}

// child is one running daemon.
type child struct {
	name string
	cmd  *exec.Cmd
	base string        // announced http://host:port, set by await
	done chan struct{} // closed once Wait returned
	tail tailBuffer    // last stderr lines, for diagnostics

	announced chan string
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// tailBuffer keeps the most recent stderr lines of a child.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
	t.mu.Unlock()
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// rig owns every child of a run and a scratch directory for their files.
type rig struct {
	binDir   string
	dir      string // per-run scratch inside the build directory
	mu       sync.Mutex
	children []*child
}

func newRig(root, binDir string) (*rig, error) {
	dir := filepath.Join(root, buildDirName, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &rig{binDir: binDir, dir: dir}, nil
}

// launch forks bin with args. Call it from the main goroutine only: main
// locks itself to the main thread so that Pdeathsig, which fires when the
// *thread* that forked exits, fires exactly when the harness dies.
func (r *rig) launch(name, bin string, args ...string) (*child, error) {
	cmd := exec.Command(filepath.Join(r.binDir, bin), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{name: name, cmd: cmd, done: make(chan struct{}), announced: make(chan string, 1)}
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()
	go func() {
		// Drain stderr for the child's whole life (clusterd logs every
		// swap) so it never blocks on a full pipe, then reap it.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			c.tail.add(line)
			if i := strings.Index(line, "serving on http://"); i >= 0 && !sent {
				sent = true
				c.announced <- "http://" + strings.Fields(line[i+len("serving on http://"):])[0]
			}
		}
		cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// await blocks until the child announced the address it serves on.
func (c *child) await() error {
	select {
	case c.base = <-c.announced:
		return nil
	case <-c.done:
		return fmt.Errorf("%s exited before serving:\n%s", c.name, c.tail.String())
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s did not announce an address within 60s:\n%s", c.name, c.tail.String())
	}
}

func (r *rig) start(name, bin string, args ...string) (*child, error) {
	c, err := r.launch(name, bin, args...)
	if err != nil {
		return nil, err
	}
	return c, c.await()
}

// stopChildren kills and reaps every child; the rig stays usable, which
// the set-up repetitions rely on.
func (r *rig) stopChildren() {
	r.mu.Lock()
	children := r.children
	r.children = nil
	r.mu.Unlock()
	for _, c := range children {
		c.cmd.Process.Kill()
	}
	for _, c := range children {
		<-c.done
	}
}

// stop also removes the run's scratch files.
func (r *rig) stop() {
	r.stopChildren()
	os.RemoveAll(r.dir)
}

// allAlive reports the first child that has exited.
func (r *rig) allAlive() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.children {
		if !c.alive() {
			return fmt.Errorf("%s (pid %d) died during the run:\n%s", c.name, c.pid(), c.tail.String())
		}
	}
	return nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds returns user+system CPU consumed so far by pid, in seconds.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable cpu fields in /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// selfCPUSeconds is the harness's own user+system CPU, at microsecond
// resolution.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns VmHWM of pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// allocCounts is a cumulative allocation reading of one or more Go
// processes.
type allocCounts struct{ mallocs, bytes uint64 }

func (a allocCounts) sub(b allocCounts) allocCounts {
	return allocCounts{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// childAllocs reads runtime memstats from a child's /debug/vars. The read
// stops the child's world, so it is only ever made outside the windows.
func childAllocs(base string) (allocCounts, error) {
	var v struct {
		Memstats struct {
			Mallocs    uint64
			TotalAlloc uint64
		} `json:"memstats"`
	}
	if err := getJSON(base+"/debug/vars", &v); err != nil {
		return allocCounts{}, err
	}
	return allocCounts{v.Memstats.Mallocs, v.Memstats.TotalAlloc}, nil
}

var controlClient = &http.Client{Timeout: 10 * time.Second}

// getJSON fetches url on the control client (never the measured
// connections) and decodes the body into v. A non-200 with a JSON body is
// still decoded: /readyz answers 503 with the same shape.
func getJSON(url string, v any) error {
	resp, err := controlClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s = %s: %v", url, resp.Status, err)
	}
	return nil
}
