package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/passes"
)

// lru is a bounded least-recently-used map from string keys: the
// bookkeeping the result cache and the reduction memo share. It is not
// synchronized; its owner holds the lock.
type lru[V any] struct {
	cap     int
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) lru[V] {
	capacity = max(capacity, 1)
	return lru[V]{cap: capacity, order: list.New(), entries: make(map[string]*list.Element, capacity)}
}

// peek returns the value stored under key without touching its
// recency.
func (l *lru[V]) peek(key string) (V, bool) {
	el, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[V]).val, true
}

// get is peek that also marks the entry most recently used.
func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key as the most recently used entry and returns
// how many least recently used entries it evicted past the capacity.
func (l *lru[V]) put(key string, val V) (evicted int) {
	if el, ok := l.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		l.order.MoveToFront(el)
		return 0
	}
	l.entries[key] = l.order.PushFront(&lruEntry[V]{key: key, val: val})
	for l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.entries, oldest.Value.(*lruEntry[V]).key)
		evicted++
	}
	return evicted
}

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
	mu sync.Mutex
	lru[*cacheEntry]
	ttl time.Duration    // 0 = entries never go stale
	now func() time.Time // registry clock (injectable in tests)
	reg *obs.Registry    // nil = uninstrumented

	hits, misses, evictions atomic.Int64
}

type cacheEntry struct {
	res    *answer
	stored time.Time
}

func newResultCache(capacity int, ttl time.Duration, reg *obs.Registry) *resultCache {
	return &resultCache{lru: newLRU[*cacheEntry](capacity), ttl: ttl, now: reg.Now, reg: reg}
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
	e, ok := c.lru.peek(key)
	if !ok {
		c.misses.Add(1)
		c.reg.Counter(obs.MetricCacheEvents, "event", "miss").Inc()
		return nil, false
	}
	if !c.fresh(e) {
		c.misses.Add(1)
		c.reg.Counter(obs.MetricCacheEvents, "event", "expired").Inc()
		return nil, false
	}
	c.hits.Add(1)
	c.reg.Counter(obs.MetricCacheEvents, "event", "hit").Inc()
	c.lru.get(key)
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
	e, found := c.lru.get(key)
	if !found {
		c.misses.Add(1)
		c.reg.Counter(obs.MetricCacheEvents, "event", "miss").Inc()
		return nil, false, false
	}
	stale = !c.fresh(e)
	c.hits.Add(1)
	if stale {
		c.reg.Counter(obs.MetricCacheEvents, "event", "stale-hit").Inc()
	} else {
		c.reg.Counter(obs.MetricCacheEvents, "event", "hit").Inc()
	}
	out := *e.res
	out.cached, out.stale = true, stale
	return &out, stale, true
}

// put stores an answer, evicting the least recently used entry past the
// capacity.
func (c *resultCache) put(key string, res *answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := c.lru.put(key, &cacheEntry{res: res, stored: c.now()}); n > 0; n-- {
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

// reductionMemo remembers, per original request key, what
// graphJob.prepare derived from the graph, so a repeated request skips
// the reduction fixpoint. It holds no answer and no verdict: a reduced
// answer is still lifted through the entry's chain and re-checked
// against the request's own graph on every serve. Bounded like the
// result cache, by Options.CacheEntries.
type reductionMemo struct {
	mu sync.Mutex
	lru[memoEntry]
	reg *obs.Registry // nil = uninstrumented
}

// memoEntry is what a memo hit restores into a graphJob.
type memoEntry struct {
	red  *passes.Reduction // nil: nothing reduced, the request key is the cache key
	cost int64             // admission price of the graph the engines see
	key  string            // cache key of red.Final; "" when red is nil
}

func newReductionMemo(capacity int, reg *obs.Registry) *reductionMemo {
	return &reductionMemo{lru: newLRU[memoEntry](capacity), reg: reg}
}

func (m *reductionMemo) get(key string) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.lru.get(key)
	event := "reduce-miss"
	if ok {
		event = "reduce-hit"
	}
	m.reg.Counter(obs.MetricCacheEvents, "event", event).Inc()
	return e, ok
}

func (m *reductionMemo) put(key string, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lru.put(key, e)
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
