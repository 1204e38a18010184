package serve

import "repro/internal/analysis"

// EngineHealth reports one engine's circuit breaker.
type EngineHealth struct {
	Engine string `json:"engine"`
	State  string `json:"state"` // closed, open, half-open
	Streak int    `json:"streak"`
	Trips  int64  `json:"trips"`
}

// Health is the server's self-report, served by /healthz: breaker
// states, queue depth, pool headroom, cache effectiveness and the
// admission counters.
type Health struct {
	Draining bool `json:"draining"`
	// Degradation is the admission controller's current brownout level:
	// "exact", "bounded", "stale-cache" or "shed".
	Degradation string `json:"degradation"`

	// InFlight counts requests inside the server (queued + running),
	// Running the analyses currently holding a worker.
	InFlight      int   `json:"in_flight"`
	Running       int64 `json:"running"`
	Workers       int   `json:"workers"`
	QueueCapacity int   `json:"queue_capacity"`

	PoolInUse    int64 `json:"pool_in_use"`
	PoolCapacity int64 `json:"pool_capacity"`
	PoolHeadroom int64 `json:"pool_headroom"`

	CacheEntries   int   `json:"cache_entries"`
	CacheCapacity  int   `json:"cache_capacity"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	Deduped        int64 `json:"deduped"`

	Admitted   int64 `json:"admitted"`
	Served     int64 `json:"served"`
	Failed     int64 `json:"failed"`
	Overloaded int64 `json:"overloaded"`

	Engines []EngineHealth `json:"engines"`
}

// Health snapshots the server state. Counters are read without a
// global pause, so the snapshot is consistent per field, not across
// fields — fine for monitoring, which is its only purpose.
func (s *Server) Health() Health {
	s.mu.Lock()
	draining, active := s.draining, s.active
	s.mu.Unlock()
	return Health{
		Draining:       draining,
		Degradation:    s.ctrl.current().String(),
		InFlight:       active,
		Running:        s.running.Load(),
		Workers:        s.opts.Workers,
		QueueCapacity:  cap(s.slots),
		PoolInUse:      s.pool.InUse(),
		PoolCapacity:   s.pool.Capacity(),
		PoolHeadroom:   s.pool.Headroom(),
		CacheEntries:   s.cache.len(),
		CacheCapacity:  s.opts.CacheEntries,
		CacheHits:      s.cache.hits.Load(),
		CacheMisses:    s.cache.misses.Load(),
		CacheEvictions: s.cache.evictions.Load(),
		Deduped:        s.flights.deduped.Load(),
		Admitted:       s.admitted.Load(),
		Served:         s.served.Load(),
		Failed:         s.failed.Load(),
		Overloaded:     s.overloaded.Load(),
		Engines:        s.engineHealth(),
	}
}

// engineHealth reports every engine's breaker in the hedged policy's
// order; /healthz and /readyz both carry it.
func (s *Server) engineHealth() []EngineHealth {
	engines := analysis.DefaultEngines()
	out := make([]EngineHealth, 0, len(engines))
	for _, m := range engines {
		b := s.breakers[m]
		out = append(out, EngineHealth{
			Engine: m.String(),
			State:  b.State().String(),
			Streak: b.Streak(),
			Trips:  b.Trips(),
		})
	}
	return out
}

// BreakerState returns the named engine's breaker state, or "" for an
// engine the server does not run. Tests and health probes use it.
func (s *Server) BreakerState(m string) string {
	for method, b := range s.breakers {
		if method.String() == m {
			return b.State().String()
		}
	}
	return ""
}
