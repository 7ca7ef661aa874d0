// Package retry holds the resilience primitives of the push-export path
// (internal/obsv/sink): a retry policy (exponential backoff with jitter
// and per-attempt deadlines), an error classifier separating transient
// transport failures from definitive answers, and a circuit breaker so a
// dead collector fails fast instead of pinning every export on a full
// timeout ladder.
package retry

import (
	"context"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

// Resilience observability: every Policy.Do loop in the process feeds
// the same counters, so "retry.retries" climbing against "retry.attempts"
// is the first sign an export peer is degrading. The counters
// sit next to network waits, never in CPU-bound paths.
var (
	retryAttempts  = obsv.C("retry.attempts")
	retryRetries   = obsv.C("retry.retries")
	retrySuccesses = obsv.C("retry.successes")
	retryFatal     = obsv.C("retry.fatal")
	retryExhausted = obsv.C("retry.exhausted")
	retryBackoffNs = obsv.H("retry.backoff.ns")
)

// Class buckets an attempt error for the retry loop.
type Class int

const (
	// Transient errors (timeouts, resets, dials to a busy peer) are worth
	// another attempt after backoff.
	Transient Class = iota
	// Fatal errors are definitive answers (a rejected payload, protocol
	// state that will not heal): retrying cannot change the outcome.
	Fatal
)

// Classifier maps an attempt error to a Class. A nil Classifier treats
// every error as Transient.
type Classifier func(error) Class

// Policy drives a bounded retry loop. The zero value retries nothing.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 behave as 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = no cap).
	MaxDelay time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (0.5 = ±50%),
	// decorrelating clients that share a recovering server.
	Jitter float64
	// PerAttempt bounds each attempt with a context deadline (0 = none;
	// the caller's context still applies).
	PerAttempt time.Duration
	// Classify decides whether an error is worth retrying; nil means
	// everything is Transient.
	Classify Classifier
	// Rand yields uniform values in [0,1) for jitter. Nil disables
	// jitter randomization (deterministic midpoint), which keeps tests
	// reproducible without threading an rng everywhere.
	Rand func() float64
	// Sleep is the clock hook, overridable in tests; nil uses a real
	// context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// SpanName names the per-attempt trace span recorded into the flight
	// recorder ("retry.attempt" when empty), so a client can label its
	// attempts (e.g. "sink.export.attempt") without wrapping Do.
	SpanName string
}

// Backoff returns the delay before attempt number attempt (attempt 1 is
// the first retry). Exported so tests and reports can explain schedules.
func (p Policy) Backoff(attempt int) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		u := 0.5 // deterministic midpoint without an rng
		if p.Rand != nil {
			u = p.Rand()
		}
		// Scale into [1-Jitter, 1+Jitter).
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*u-1)))
	}
	return d
}

// Do runs op under the policy. It returns the number of attempts made and
// the first nil or Fatal error, or the last Transient error once attempts
// are exhausted. op receives a per-attempt context when PerAttempt is set.
// Each attempt records a trace span (named by SpanName) carrying the
// attempt number and, on retries, the backoff just slept — the per-attempt
// causality a flight-recorder dump needs to explain a slow lookup.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) (attempts int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	spanName := p.SpanName
	if spanName == "" {
		spanName = "retry.attempt"
	}
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		var backoff time.Duration
		if attempt > 0 {
			backoff = p.Backoff(attempt)
			retryRetries.Inc()
			retryBackoffNs.Observe(int64(backoff))
			if err := p.sleep(ctx, backoff); err != nil {
				return attempts, err
			}
		}
		attempts++
		retryAttempts.Inc()
		spanCtx, sp := obsv.StartTraceSpan(ctx, spanName)
		sp.SetAttrInt("attempt", int64(attempts))
		if attempt > 0 {
			sp.SetAttrInt("backoff_ns", int64(backoff))
		}
		attemptCtx, cancel := p.attemptContext(spanCtx)
		err := op(attemptCtx)
		cancel()
		if err != nil {
			sp.Fail(err)
		}
		sp.End()
		if err == nil {
			retrySuccesses.Inc()
			return attempts, nil
		}
		lastErr = err
		if p.classify(err) == Fatal {
			retryFatal.Inc()
			return attempts, err
		}
		if ctx.Err() != nil {
			return attempts, lastErr
		}
	}
	retryExhausted.Inc()
	return attempts, lastErr
}

func (p Policy) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.PerAttempt <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, p.PerAttempt)
}

func (p Policy) classify(err error) Class {
	if p.Classify == nil {
		return Transient
	}
	return p.Classify(err)
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
