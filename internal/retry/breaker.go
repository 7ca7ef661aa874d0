package retry

import (
	"errors"
	"sync"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

// Breaker state observability. The open-breaker gauge counts breakers
// currently open across the process; opens and fast-fails accumulate.
var (
	breakerOpens     = obsv.C("retry.breaker.opens")
	breakerFastFails = obsv.C("retry.breaker.fast_fails")
	breakersOpen     = obsv.G("retry.breaker.open")
)

// ErrOpen is returned (wrapped) by clients whose circuit breaker is open:
// the peer has failed enough consecutive attempts that further queries
// fail fast instead of burning a timeout ladder each.
var ErrOpen = errors.New("retry: circuit breaker open")

// Breaker is a consecutive-failure circuit breaker. Closed passes all
// traffic; Threshold consecutive recorded failures open it; after
// Cooldown one trial request is allowed through (half-open) and its
// outcome closes or re-opens the circuit.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker;
	// values below 1 disable it (Allow always true).
	Threshold int
	// Cooldown is how long the breaker stays open before permitting a
	// half-open trial.
	Cooldown time.Duration
	// Now is the clock, overridable in tests.
	Now func() time.Time

	mu       sync.Mutex
	failures int
	openedAt time.Time
	open     bool
	halfOpen bool
	opens    int
	fastFail int
}

// NewBreaker returns a breaker that opens after threshold consecutive
// failures and re-tests the peer every cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown}
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

// Allow reports whether a request may proceed. When the breaker is open
// and the cooldown has elapsed, it admits exactly one half-open trial.
func (b *Breaker) Allow() bool {
	if b == nil || b.Threshold < 1 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.now().Sub(b.openedAt) >= b.Cooldown && !b.halfOpen {
		b.halfOpen = true
		return true
	}
	b.fastFail++
	return false
}

// Record feeds an attempt outcome into the breaker. nil closes the
// circuit and resets the failure run; an error extends the run and opens
// the circuit at Threshold (or immediately re-opens a half-open trial).
func (b *Breaker) Record(err error) {
	if b == nil || b.Threshold < 1 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.failures = 0
		if b.open {
			breakersOpen.Add(-1)
		}
		b.open = false
		b.halfOpen = false
		return
	}
	b.failures++
	if b.halfOpen || (!b.open && b.failures >= b.Threshold) {
		if !b.open {
			breakersOpen.Add(1)
		}
		b.open = true
		b.halfOpen = false
		b.openedAt = b.now()
		b.opens++
		breakerOpens.Inc()
	}
}

// State reports the breaker's current position: "closed", "open", or
// "half-open" (cooldown elapsed, one trial admitted). A nil or disabled
// breaker is always "closed". Trace spans attach this so a dump shows
// whether a fast-fail came from a tripped circuit.
func (b *Breaker) State() string {
	if b == nil || b.Threshold < 1 {
		return "closed"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return "closed"
	case b.halfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// FastFails returns how many requests were rejected without touching the
// network while the breaker was open.
func (b *Breaker) FastFails() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fastFail
}
