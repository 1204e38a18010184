package serve

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrDegraded marks a request refused by the degradation ladder: an
// exactOnly request while admission is browned out, or any fresh
// computation while the controller sits at the shed level with nothing
// cached to serve. It maps to HTTP 429 with a Retry-After derived from
// the controller's estimated drain time.
var ErrDegraded = errors.New("serve: admission degraded")

// Level is a rung of the degradation ladder. Levels order by severity:
// every request is served at the current level's fidelity unless it
// opted out with exactOnly.
type Level int

const (
	// LevelExact is normal operation: the hedged engine policy (or the
	// requested engine), exact answers only.
	LevelExact Level = iota
	// LevelBounded answers with a certified conservative enclosure
	// (reduction fixpoint + matrix engine under a hard cost ceiling)
	// instead of the exact engines.
	LevelBounded
	// LevelStale serves expired result-cache entries, marked stale,
	// with a background singleflight refresh; misses fall back to
	// bounded answers.
	LevelStale
	// LevelShed refuses fresh computation outright; only cache content
	// (fresh or stale) is served.
	LevelShed
)

// String names the level on the wire and in metrics.
func (l Level) String() string {
	switch l {
	case LevelExact:
		return "exact"
	case LevelBounded:
		return "bounded"
	case LevelStale:
		return "stale-cache"
	case LevelShed:
		return "shed"
	default:
		return "unknown"
	}
}

// latWindow is the sliding window of recent request latencies the
// pressure signal draws its p99 and drain estimate from.
const latWindow = 128

// fallbackLatency prices a request when the window is empty (cold
// start): pessimistic enough that the first drain estimates do not
// promise an instant retry.
const fallbackLatency = 250 * time.Millisecond

// controller is the adaptive admission controller: it folds queue
// depth and the recent p99 latency into a pressure level with
// hysteresis. Escalation is immediate — a filling queue must brown out
// now, not after a timer — while de-escalation steps down one level at
// a time only after the raw signal has stayed below the current level
// for a full hold period, so the ladder does not flap at a threshold.
type controller struct {
	workers  int
	capacity int           // slots capacity (workers + queue depth)
	target   time.Duration // p99 latency target
	hold     time.Duration // de-escalation hold
	now      func() time.Time
	reg      *obs.Registry

	mu         sync.Mutex
	level      Level
	belowSince time.Time // start of the current below-level streak

	lats [latWindow]time.Duration
	n    int // samples stored (≤ latWindow)
	idx  int // next write position
}

func newController(workers, capacity int, target, hold time.Duration, reg *obs.Registry) *controller {
	if target <= 0 {
		target = time.Second
	}
	if hold <= 0 {
		hold = 2 * time.Second
	}
	c := &controller{
		workers:  workers,
		capacity: capacity,
		target:   target,
		hold:     hold,
		now:      reg.Now,
		reg:      reg,
	}
	reg.Gauge(obs.MetricDegradationLevel).Set(int64(LevelExact))
	return c
}

// observe records one completed request's end-to-end latency.
func (c *controller) observe(d time.Duration) {
	c.mu.Lock()
	c.lats[c.idx] = d
	c.idx = (c.idx + 1) % latWindow
	if c.n < latWindow {
		c.n++
	}
	c.mu.Unlock()
}

// p99Locked returns the 99th percentile of the window (0 when empty).
func (c *controller) p99Locked() time.Duration {
	if c.n == 0 {
		return 0
	}
	buf := make([]time.Duration, c.n)
	copy(buf, c.lats[:c.n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[(c.n-1)*99/100]
}

// meanLocked returns the window mean, or fallbackLatency when empty.
func (c *controller) meanLocked() time.Duration {
	if c.n == 0 {
		return fallbackLatency
	}
	var sum time.Duration
	for _, d := range c.lats[:c.n] {
		sum += d
	}
	return sum / time.Duration(c.n)
}

// rawLevelLocked derives the instantaneous pressure level from the
// queue occupancy and the recent p99: ≥ 1/2 full is bounded, ≥ 3/4 is
// stale-cache, a full house is shed, and a p99 past the latency target
// brings at least bounded even with a shallow queue (the queue is
// short because the work is long).
func (c *controller) rawLevelLocked(queued int) Level {
	switch {
	case queued >= c.capacity:
		return LevelShed
	case 4*queued >= 3*c.capacity:
		return LevelStale
	case 2*queued >= c.capacity:
		return LevelBounded
	}
	if c.p99Locked() > c.target {
		return LevelBounded
	}
	return LevelExact
}

// update folds the current queue depth into the ladder and returns the
// level the caller must serve at. The hysteresis discipline: raw above
// the current level escalates immediately (and resets the streak); raw
// below it starts or continues a streak, de-escalating one level per
// completed hold period; raw at the level clears the streak.
func (c *controller) update(queued int) Level {
	c.mu.Lock()
	raw := c.rawLevelLocked(queued)
	from := c.level
	switch {
	case raw > c.level:
		c.level = raw
		c.belowSince = time.Time{}
	case raw < c.level:
		now := c.now()
		if c.belowSince.IsZero() {
			c.belowSince = now
		} else if now.Sub(c.belowSince) >= c.hold {
			c.level--
			c.belowSince = now // next rung needs its own full hold
		}
	default:
		c.belowSince = time.Time{}
	}
	to := c.level
	c.mu.Unlock()
	if from != to {
		c.reg.Gauge(obs.MetricDegradationLevel).Set(int64(to))
		c.reg.Emit("degrade.transition", "from", from.String(), "to", to.String())
	}
	return to
}

// current reads the level without feeding the signal.
func (c *controller) current() Level {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// drainEstimate predicts how long the present backlog needs to drain:
// queued requests times the recent mean latency, divided across the
// workers, rounded up to whole seconds and clamped to [1, 30]. It is
// the Retry-After of every pressure refusal — a deep, slow backlog
// tells clients to stay away longer than a shallow, quick one.
func (c *controller) drainEstimate(queued int) int {
	c.mu.Lock()
	mean := c.meanLocked()
	c.mu.Unlock()
	if queued < 1 {
		queued = 1
	}
	d := time.Duration(queued) * mean / time.Duration(c.workers)
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}
