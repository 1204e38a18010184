// Circuit breakers for the serving layer. A long-running analysis
// service cannot afford to keep feeding work to an engine that has
// started panicking or blowing its deadlines — every doomed attempt
// burns budget, a worker slot and wall time. A Breaker wraps one engine
// with the classic three-state machine:
//
//	closed    — requests flow; a streak of trip-worthy failures opens it.
//	open      — requests are refused instantly with ErrBreakerOpen until
//	            the cooldown elapses.
//	half-open — exactly one probe request is admitted; its success closes
//	            the breaker, its failure re-opens it, and a neutral
//	            outcome (lost race, cancellation) releases the probe slot
//	            for the next candidate.
//
// The clock is injectable so every transition is testable without
// sleeping; the zero options give sane production defaults.
package guard

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen marks work refused because the engine's circuit
// breaker is open (or its half-open probe slot is already taken).
var ErrBreakerOpen = errors.New("guard: circuit breaker open")

// BreakerState is the state of a Breaker.
type BreakerState int

const (
	// BreakerClosed admits every request.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe request at a time.
	BreakerHalfOpen
)

// String names the state for health reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerOptions configures a Breaker. The zero value is usable: five
// consecutive failures trip the breaker, it cools down for a second,
// and the wall clock is time.Now.
type BreakerOptions struct {
	// Threshold is the consecutive-failure streak that trips a closed
	// breaker; values below 1 mean the default of 5.
	Threshold int
	// Cooldown is how long an open breaker refuses before allowing a
	// half-open probe; values <= 0 mean the default of one second.
	Cooldown time.Duration
	// Now supplies the clock; nil means time.Now. Tests inject a fake
	// clock so open->half-open transitions happen without sleeping.
	Now func() time.Time
	// OnTransition, when non-nil, is called after every state change
	// with the old and new state. It runs synchronously under the
	// breaker's lock, so it must be fast and must not call back into
	// the breaker; the serving layer points it at metric counters.
	OnTransition func(from, to BreakerState)
}

func (o BreakerOptions) normalized() BreakerOptions {
	if o.Threshold < 1 {
		o.Threshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Breaker is a three-state circuit breaker, safe for concurrent use.
// Construct with NewBreaker.
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	streak   int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // half-open: the single probe slot is taken
	trips    int64     // lifetime closed->open transitions
}

// NewBreaker returns a closed breaker with the given options.
func NewBreaker(opts BreakerOptions) *Breaker {
	return &Breaker{opts: opts.normalized()}
}

// Allow reports whether a request may proceed. In the open state it
// returns ErrBreakerOpen until the cooldown has elapsed, at which point
// the breaker moves to half-open and admits the caller as the probe.
// In half-open, only the single probe slot is granted; every admitted
// caller must later report exactly one of Success, Failure or Forgive.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.opts.Now().Sub(b.openedAt) < b.opts.Cooldown {
			return ErrBreakerOpen
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return nil
	default: // BreakerHalfOpen
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// Success records a healthy completion: it resets the failure streak
// and, from half-open, closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.streak = 0
	if b.state == BreakerHalfOpen {
		b.transition(BreakerClosed)
		b.probing = false
	}
}

// Failure records a trip-worthy failure (engine failure, panic,
// deadline): from closed it extends the streak and opens the breaker at
// the threshold; from half-open it re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.streak++
		if b.streak >= b.opts.Threshold {
			b.open()
		}
	case BreakerHalfOpen:
		b.open()
	}
}

// open transitions to the open state; callers hold b.mu.
func (b *Breaker) open() {
	b.transition(BreakerOpen)
	b.openedAt = b.opts.Now()
	b.streak = 0
	b.probing = false
	b.trips++
}

// transition moves to the new state and notifies OnTransition; callers
// hold b.mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	b.state = to
	if b.opts.OnTransition != nil && from != to {
		b.opts.OnTransition(from, to)
	}
}

// Forgive records a neutral outcome — the engine was admitted but not
// run because a sibling engine answered first, or its budget refused
// the graph —
// that says nothing about the engine's health. It releases a half-open
// probe slot without a verdict and leaves the failure streak untouched.
func (b *Breaker) Forgive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// State returns the current state, performing the lazy open->half-open
// transition if the cooldown has elapsed, so health reports reflect
// what Allow would do.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.opts.Now().Sub(b.openedAt) >= b.opts.Cooldown {
		b.transition(BreakerHalfOpen)
		b.probing = false
	}
	return b.state
}

// Streak returns the current consecutive-failure count (closed state).
func (b *Breaker) Streak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.streak
}

// Trips returns how many times the breaker has opened over its
// lifetime.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
