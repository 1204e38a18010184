package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// resultCache is a bounded LRU of certified analysis answers keyed by
// the canonical request hash. Every cached entry was independently
// verified before it was stored; the entry holds the engine-layer
// answer (throughput plus certificate object) rather than a rendered
// payload, because the serving layer lifts answers through each
// request's own reduction chain before rendering — two originals that
// reduce to the same graph share the entry but not the lift.
//
// With a TTL configured, entries past it stop answering get but stay
// in the list: the degradation ladder's stale-cache level serves them
// explicitly (marked stale) via getStale while a background refresh
// recomputes. Expired entries leave only by capacity eviction or by
// being overwritten with a fresh result — a stale certified answer
// beats a refusal, and it still occupies the capacity it is worth.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration    // 0 = entries never go stale
	now     func() time.Time // registry clock (injectable in tests)
	order   *list.List       // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	reg     *obs.Registry // nil = uninstrumented

	hits, misses, evictions atomic.Int64
}

type cacheEntry struct {
	key    string
	res    *answer
	stored time.Time
}

func newResultCache(capacity int, ttl time.Duration, reg *obs.Registry) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:     capacity,
		ttl:     ttl,
		now:     reg.Now,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
		reg:     reg,
	}
}

// fresh reports whether the entry is still within the TTL.
func (c *resultCache) fresh(e *cacheEntry) bool {
	return c.ttl <= 0 || c.now().Sub(e.stored) < c.ttl
}

// get returns a copy of the cached answer for key, marking it as served
// from the cache. Expired entries answer as misses (the exact path must
// recompute) but are left in place for getStale.
func (c *resultCache) get(key string) (*answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		c.reg.Counter(obs.MetricCacheEvents, "event", "miss").Inc()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !c.fresh(e) {
		c.misses.Add(1)
		c.reg.Counter(obs.MetricCacheEvents, "event", "expired").Inc()
		return nil, false
	}
	c.hits.Add(1)
	c.reg.Counter(obs.MetricCacheEvents, "event", "hit").Inc()
	c.order.MoveToFront(el)
	res := *e.res
	res.cached = true
	return &res, true
}

// getStale returns a copy of the cached answer for key regardless of
// age, reporting whether it is past the TTL. Serving an entry — fresh
// or stale — refreshes its LRU position: an answer that is still being
// asked for is the last one capacity eviction should reclaim.
func (c *resultCache) getStale(key string) (res *answer, stale, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.misses.Add(1)
		c.reg.Counter(obs.MetricCacheEvents, "event", "miss").Inc()
		return nil, false, false
	}
	e := el.Value.(*cacheEntry)
	stale = !c.fresh(e)
	c.hits.Add(1)
	if stale {
		c.reg.Counter(obs.MetricCacheEvents, "event", "stale-hit").Inc()
	} else {
		c.reg.Counter(obs.MetricCacheEvents, "event", "hit").Inc()
	}
	c.order.MoveToFront(el)
	out := *e.res
	out.cached, out.stale = true, stale
	return &out, stale, true
}

// put stores an answer, evicting the least recently used entry past the
// capacity.
func (c *resultCache) put(key string, res *answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.res = res
		e.stored = c.now()
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res, stored: c.now()})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
		c.reg.Counter(obs.MetricCacheEvents, "event", "evict").Inc()
	}
}

// len returns the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight is one in-flight computation that identical requests join
// instead of repeating.
type flight struct {
	done chan struct{}
	res  *answer
	err  error
}

// flightGroup deduplicates concurrent identical requests: the first
// caller for a key becomes the leader and computes; followers wait for
// the leader's result (or their own deadline). The leader runs detached
// from any single caller's context, so a follower-visible result is
// never lost to the leader's client hanging up.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	reg     *obs.Registry // nil = uninstrumented

	deduped atomic.Int64
}

func newFlightGroup(reg *obs.Registry) *flightGroup {
	return &flightGroup{flights: make(map[string]*flight), reg: reg}
}

// join returns the existing flight for key, or registers a new one and
// reports that the caller is its leader.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		g.deduped.Add(1)
		g.reg.Counter(obs.MetricCacheEvents, "event", "dedup").Inc()
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// finish publishes the leader's outcome and releases the key.
func (g *flightGroup) finish(key string, f *flight, res *answer, err error) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}
