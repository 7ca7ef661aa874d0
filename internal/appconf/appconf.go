// Package appconf is the config hot-reload substrate for the long-running
// commands: a polling file watcher (no inotify dependency — a 1–2 s
// mtime/content poll is plenty for operator-edited files and works on
// every platform) that applies validated configuration atomically via
// the same generation/RCU pattern internal/churn proved for prefix
// tables.
//
// The invariants mirror the table-swap ones:
//
//   - Readers are lock-free: Current() is one atomic pointer load, so
//     request handlers consult live limits at zero cost.
//   - Validation happens before the swap: a config that fails to parse
//     or validate is rejected, counted on config.rejected, remembered
//     for /debug/config and readiness — and the previous generation
//     keeps serving untouched.
//   - Every accepted swap increments a generation number; the caller's
//     /debug/config shows the live generation, its source and load time,
//     so an operator can verify a reload actually landed.
//
// Reloads trigger on the poll, on SIGHUP (the caller wires the signal to
// Reload), or programmatically. A missing file at startup is an error
// only if the caller made it one: Watch parses the file once before
// returning, so a process never starts against an invalid config.
package appconf

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

var (
	mReloads    = obsv.C("config.reloads")  // accepted swaps (initial load included)
	mRejected   = obsv.C("config.rejected") // parse/validation failures that kept the old generation
	mPollErrs   = obsv.C("config.poll_errors")
	gGeneration = obsv.G("config.generation")
)

// Loaded is one accepted configuration generation.
type Loaded[T any] struct {
	// Generation counts accepted loads, starting at 1.
	Generation uint64
	// Path is the watched file.
	Path string
	// LoadedAt is when this generation was swapped in.
	LoadedAt time.Time
	// Config is the validated configuration.
	Config T
}

// Watcher hot-reloads one file into a validated config of type T.
type Watcher[T any] struct {
	path     string
	interval time.Duration
	parse    func(data []byte) (T, error)
	onSwap   func(old, new *Loaded[T])
	logf     func(format string, args ...any)

	cur     atomic.Pointer[Loaded[T]]
	lastErr atomic.Pointer[loadError]

	mu       sync.Mutex // serializes load attempts
	lastHash [sha256.Size]byte

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

type loadError struct {
	When time.Time
	Err  error
}

// Options tunes a watcher.
type Options[T any] struct {
	// PollInterval between file checks (default 2 s).
	PollInterval time.Duration
	// OnSwap runs after each accepted swap (old is nil on the first
	// load). It runs on the watcher goroutine — keep it quick.
	OnSwap func(old, new *Loaded[T])
	// Logf receives reload outcomes (nil = discarded).
	Logf func(format string, args ...any)
}

// Watch parses path once (failing fast on an invalid initial config,
// so a process never starts on defaults it was not asked for) and then
// polls it for changes. parse must validate: anything it rejects never
// becomes current.
func Watch[T any](path string, parse func([]byte) (T, error), opts Options[T]) (*Watcher[T], error) {
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	w := &Watcher[T]{
		path:     path,
		interval: opts.PollInterval,
		parse:    parse,
		onSwap:   opts.OnSwap,
		logf:     opts.Logf,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := w.load(true); err != nil {
		return nil, err
	}
	go w.loop()
	return w, nil
}

// Current returns the live generation — one atomic load, safe on any
// request path.
func (w *Watcher[T]) Current() *Loaded[T] { return w.cur.Load() }

// Generation returns the live generation number (0 before the first
// accepted load — reachable only on the initial-load error path).
func (w *Watcher[T]) Generation() uint64 {
	if cur := w.Current(); cur != nil {
		return cur.Generation
	}
	return 0
}

// LastError returns the most recent rejected reload, or nil if the last
// load attempt succeeded. Readiness uses it: a config edit that fails
// validation flips readiness false until the file is fixed.
func (w *Watcher[T]) LastError() error {
	if le := w.lastErr.Load(); le != nil {
		return le.Err
	}
	return nil
}

// Status is a watcher's state without its config, whatever T is: what
// a readiness probe and a config debug page report.
type Status struct {
	Generation uint64    // the live generation, as Generation returns it
	Path       string    // the watched file
	LoadedAt   time.Time // when the live generation was swapped in
	Err        error     // the last rejected load, as LastError returns it
}

// Status returns the watcher's state.
func (w *Watcher[T]) Status() Status {
	st := Status{Path: w.path, Err: w.LastError()}
	if cur := w.Current(); cur != nil {
		st.Generation, st.LoadedAt = cur.Generation, cur.LoadedAt
	}
	return st
}

// Reload forces a load attempt now (the SIGHUP path). The operator
// asked explicitly, so the content-hash short-circuit is skipped: even
// unchanged bytes are re-parsed and swapped in as a new generation. It
// reports whether a swap happened and the validation error if the file
// was rejected.
func (w *Watcher[T]) Reload() (swapped bool, err error) {
	before := w.Generation()
	err = w.load(true)
	return w.Generation() > before, err
}

// load reads, parses, validates and (on change) swaps. force skips the
// content-hash short-circuit.
func (w *Watcher[T]) load(force bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := os.ReadFile(w.path)
	if err != nil {
		err = fmt.Errorf("appconf: reading %s: %w", w.path, err)
		w.reject(err)
		return err
	}
	hash := sha256.Sum256(data)
	if !force && hash == w.lastHash {
		return nil
	}
	cfg, err := w.parse(data)
	if err != nil {
		err = fmt.Errorf("appconf: %s: %w", w.path, err)
		w.reject(err)
		return err
	}
	w.lastHash = hash
	old := w.cur.Load()
	next := &Loaded[T]{Path: w.path, LoadedAt: time.Now(), Config: cfg, Generation: 1}
	if old != nil {
		next.Generation = old.Generation + 1
	}
	w.cur.Store(next)
	w.lastErr.Store(nil)
	mReloads.Inc()
	gGeneration.Set(int64(next.Generation))
	w.logf("appconf: %s: generation %d live", w.path, next.Generation)
	if w.onSwap != nil {
		w.onSwap(old, next)
	}
	return nil
}

// reject records a failed load; the previous generation keeps serving.
func (w *Watcher[T]) reject(err error) {
	w.lastErr.Store(&loadError{When: time.Now(), Err: err})
	mRejected.Inc()
	w.logf("appconf: rejected: %v (generation %d keeps serving)", err, w.Generation())
}

func (w *Watcher[T]) loop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			// Unforced: unchanged bytes short-circuit on the hash.
			if err := w.load(false); err != nil && !os.IsNotExist(err) {
				mPollErrs.Inc()
			}
		}
	}
}

// Close stops the poll loop. The current generation stays readable.
func (w *Watcher[T]) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Duration is a time.Duration that JSON-decodes from either a Go
// duration string ("2s", "150ms") or a bare number of nanoseconds, and
// encodes as the string form — the shape operator config files want.
type Duration time.Duration

// UnmarshalJSON accepts "2s"-style strings and nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("appconf: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("appconf: bad duration %s", b)
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }
