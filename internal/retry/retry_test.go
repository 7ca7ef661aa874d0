package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func TestDoSucceedsFirstTry(t *testing.T) {
	p := Policy{MaxAttempts: 3, Sleep: noSleep}
	calls := 0
	attempts, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return nil
	})
	if err != nil || attempts != 1 || calls != 1 {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestDoRetriesTransient(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Sleep: noSleep}
	calls := 0
	attempts, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, Sleep: noSleep}
	attempts, err := p.Do(context.Background(), func(context.Context) error { return errBoom })
	if !errors.Is(err, errBoom) || attempts != 3 {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
}

func TestDoStopsOnFatal(t *testing.T) {
	fatal := errors.New("nxdomain")
	p := Policy{
		MaxAttempts: 5,
		Sleep:       noSleep,
		Classify: func(err error) Class {
			if errors.Is(err, fatal) {
				return Fatal
			}
			return Transient
		},
	}
	calls := 0
	attempts, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls == 2 {
			return fatal
		}
		return errBoom
	})
	if !errors.Is(err, fatal) || attempts != 2 {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
}

func TestDoHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Hour} // real Sleep, must not block
	attempts, err := p.Do(ctx, func(context.Context) error {
		cancel()
		return errBoom
	})
	if attempts != 1 || err == nil {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
}

func TestPerAttemptDeadline(t *testing.T) {
	p := Policy{MaxAttempts: 2, PerAttempt: 10 * time.Millisecond, Sleep: noSleep}
	var sawDeadline bool
	p.Do(context.Background(), func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			sawDeadline = true
		}
		return nil
	})
	if !sawDeadline {
		t.Fatal("attempt context should carry a deadline")
	}
}

func TestBackoffSchedule(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond}
	want := []time.Duration{10, 20, 35, 35} // ms, doubling then capped
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if p.Backoff(0) != 0 {
		t.Fatal("attempt 0 must have no backoff")
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	for _, u := range []float64{0, 0.25, 0.5, 0.999} {
		p := Policy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5, Rand: func() float64 { return u }}
		d := p.Backoff(1)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [50ms,150ms] at u=%v", d, u)
		}
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.Now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker must allow (failure %d)", i)
		}
		b.Record(errBoom)
	}
	if b.Allow() {
		t.Fatal("breaker must be open after threshold failures")
	}
	if b.Opens() != 1 || b.FastFails() != 1 {
		t.Fatalf("opens=%d fastFails=%d", b.Opens(), b.FastFails())
	}
	// Cooldown elapses: exactly one half-open trial.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("half-open trial must be admitted after cooldown")
	}
	if b.Allow() {
		t.Fatal("second request during half-open must fast-fail")
	}
	// Trial fails: re-open immediately.
	b.Record(errBoom)
	if b.Allow() {
		t.Fatal("failed trial must re-open the breaker")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
	// Next trial succeeds: circuit closes fully.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("trial after second cooldown must be admitted")
	}
	b.Record(nil)
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker must allow everything")
		}
	}
}

func TestBreakerSuccessResetsRun(t *testing.T) {
	b := NewBreaker(3, time.Second)
	b.Record(errBoom)
	b.Record(errBoom)
	b.Record(nil) // run broken
	b.Record(errBoom)
	b.Record(errBoom)
	if !b.Allow() {
		t.Fatal("non-consecutive failures must not open the breaker")
	}
}

func TestNilBreakerIsNoop(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker allows")
	}
	b.Record(errBoom)
	if b.Opens() != 0 || b.FastFails() != 0 {
		t.Fatal("nil breaker counts nothing")
	}
}

func noSleep(context.Context, time.Duration) error { return nil }
