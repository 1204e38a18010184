// Package obs is the observability layer of the analysis stack: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms), lightweight pipeline spans with an
// injectable clock, and a bounded ring buffer of structured events.
//
// The design contract, relied on by every instrumented layer:
//
//	nil is a no-op — every method on a nil *Registry, nil *Counter,
//	    nil *Gauge, nil *Histogram and the zero Span does nothing and
//	    allocates nothing, so library callers that attach no registry
//	    pay a nil check and nothing else.
//	the hot path is allocation-free — instruments are resolved once
//	    (Counter/Gauge/Histogram, which may allocate while registering)
//	    and then driven with Add/Set/Observe, which only touch atomics.
//	snapshots never stop the world — exposition walks the registry
//	    under a read lock while writers keep counting; per-series values
//	    are exact, cross-series consistency is not promised (and not
//	    needed for monitoring).
//
// The package imports nothing from the rest of the repository, so even
// internal/guard — itself imported by every engine — can depend on it.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names of the analysis stack. They live here, next to
// the registry, so the serving layer, the engines, the CLI scraper and
// the CI gate agree on one spelling.
const (
	// MetricRequests counts requests by terminal outcome
	// (label outcome: served, failed, refused-queue, refused-pool,
	// refused-draining, refused-injection, precondition).
	MetricRequests = "sdf_requests_total"
	// MetricRequestSeconds is the end-to-end request latency histogram
	// (label method: hedged, matrix, statespace, hsdf).
	MetricRequestSeconds = "sdf_request_seconds"
	// MetricEngineSeconds is the per-engine attempt latency histogram
	// (label engine).
	MetricEngineSeconds = "sdf_engine_seconds"
	// MetricEngineAttempts counts engine attempts by outcome
	// (labels engine; outcome: answered, verified, cancelled, failed,
	// gated, skipped).
	MetricEngineAttempts = "sdf_engine_attempts_total"
	// MetricHedgeRaces counts hedged races by outcome (label outcome:
	// answered, failed).
	MetricHedgeRaces = "sdf_hedge_races_total"
	// MetricHedgeWins counts race wins per engine (label engine).
	MetricHedgeWins = "sdf_hedge_wins_total"
	// MetricCacheEvents counts result-cache traffic (label event: hit,
	// miss, expired, stale-hit, evict, dedup) and reduction-memo
	// traffic (reduce-hit, reduce-miss).
	MetricCacheEvents = "sdf_cache_events_total"
	// MetricBreakerTransitions counts breaker state changes (labels
	// engine; to: open, half-open, closed).
	MetricBreakerTransitions = "sdf_breaker_transitions_total"
	// MetricBreakerTrips counts closed/half-open -> open transitions per
	// engine (label engine).
	MetricBreakerTrips = "sdf_breaker_trips_total"
	// MetricBudgetExhausted counts guard budget refusals per engine
	// (label engine).
	MetricBudgetExhausted = "sdf_guard_budget_exhausted_total"
	// MetricFaultsFired counts injected faults that fired (labels
	// engine, mode).
	MetricFaultsFired = "sdf_guard_faults_fired_total"
	// MetricSpanSeconds is the histogram every finished Span observes
	// (label span = span name, plus the span's own start attributes).
	MetricSpanSeconds = "sdf_span_seconds"
	// MetricReduceSteps counts applied reduction-rule rewrites (label
	// rule).
	MetricReduceSteps = "sdf_reduce_steps_total"
	// MetricDegradationLevel is the serving layer's current brownout
	// level as a gauge: 0 exact, 1 bounded, 2 stale-cache, 3 shed.
	MetricDegradationLevel = "sdf_degradation_level"
	// MetricDegraded counts answers and refusals produced under a
	// degraded admission level (label level: bounded, stale-cache, shed,
	// exact-only).
	MetricDegraded = "sdf_serve_degraded_total"

	// Fleet-layer metrics (the sdfrouter replica router).

	// MetricFleetRequestSeconds is the router's end-to-end latency
	// histogram, attempts and hedges included (label outcome: ok,
	// error, unavailable).
	MetricFleetRequestSeconds = "sdf_fleet_request_seconds"
	// MetricFleetAttempts counts per-replica proxy attempts by outcome
	// (labels replica; outcome: ok, retryable, fatal, canceled).
	MetricFleetAttempts = "sdf_fleet_attempts_total"
	// MetricFleetRetries counts backoff-paced retry launches (label
	// replica = the replica the retry went to).
	MetricFleetRetries = "sdf_fleet_retries_total"
	// MetricFleetHedgeWins counts requests answered by the hedged
	// (second) attempt (label replica = the winner).
	MetricFleetHedgeWins = "sdf_fleet_hedge_wins_total"
	// MetricFleetHedgeLosses counts hedges that launched but lost to
	// the primary attempt (label replica = the losing hedge's target).
	MetricFleetHedgeLosses = "sdf_fleet_hedge_losses_total"
	// MetricFleetEjections counts replica ejections from the routing
	// ring (label replica).
	MetricFleetEjections = "sdf_fleet_ejections_total"
	// MetricFleetReadmissions counts replicas re-admitted after
	// probation (label replica).
	MetricFleetReadmissions = "sdf_fleet_readmissions_total"
	// MetricFleetEjectedReplicas is the gauge of currently ejected
	// replicas.
	MetricFleetEjectedReplicas = "sdf_fleet_ejected_replicas"
	// MetricFleetProbes counts health probes by result (labels replica;
	// result: ok, fail).
	MetricFleetProbes = "sdf_fleet_probes_total"
	// MetricFleetDegradedReroutes counts requests steered away from a
	// browned-out ring owner toward an un-degraded replica (label
	// replica = the preferred replica).
	MetricFleetDegradedReroutes = "sdf_fleet_degraded_reroutes_total"

	// Batch-serving metrics (POST /v1/batch, serve and fleet layers).

	// MetricBatchRequests counts whole batches by outcome (label
	// outcome: complete, partial, refused-draining, failed).
	MetricBatchRequests = "sdf_batch_requests_total"
	// MetricBatchItems counts batch items by final status (label
	// status: ok, bounded, degraded, item-error).
	MetricBatchItems = "sdf_batch_items_total"
	// MetricBatchSeconds is the whole-batch latency histogram.
	MetricBatchSeconds = "sdf_batch_seconds"
	// MetricBatchFanout counts sub-batches dispatched per replica by
	// the fleet router (labels replica; kind: primary, redispatch,
	// straggler).
	MetricBatchFanout = "sdf_batch_fanout_total"
	// MetricBatchRedispatchedItems counts items re-dispatched off a
	// failed or straggling replica to a survivor (label replica = the
	// replica the items were pulled from).
	MetricBatchRedispatchedItems = "sdf_batch_redispatched_items_total"
	// MetricBatchLostItems counts items the router had to synthesize an
	// unavailable entry for because every replica failed them. The
	// merge invariant keeps entries, so "lost" means lost answers, not
	// lost entries; chaos tests assert the counter stays meaningful.
	MetricBatchLostItems = "sdf_batch_lost_items_total"
	// MetricBatchDedupItems counts batch items answered by another
	// identical item in the same batch (cross-item dedup): the leader
	// item computed, the duplicates fanned its answer out.
	MetricBatchDedupItems = "sdf_batch_dedup_items_total"

	// Scenario-aware dataflow metrics (POST /v1/sadf).

	// MetricSADFRequests counts FSM-SADF analysis requests by outcome
	// (label outcome: served, failed, refused, degraded-refusal).
	MetricSADFRequests = "sdf_sadf_requests_total"
	// MetricSADFSeconds is the end-to-end sadf request latency
	// histogram (label outcome).
	MetricSADFSeconds = "sdf_sadf_seconds"
	// MetricSADFAutomatonNodes accumulates the max-plus automaton node
	// counts of analysed models: automaton size is the cost driver of
	// the workload, and the benchmark plots wall time against it.
	MetricSADFAutomatonNodes = "sdf_sadf_automaton_nodes_total"
)

// Kind distinguishes the instrument families of a Registry.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that goes up and down.
	KindGauge
	// KindHistogram is a fixed-bucket latency distribution.
	KindHistogram
)

// String names the kind in the Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing atomic count. The nil Counter
// is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n (negative n is ignored: counters only
// go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic value that moves both ways. The nil Gauge is a
// no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value; 0 on a nil Gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// family is one named metric: a kind, optional histogram bounds, and
// the labelled series registered under the name.
type family struct {
	kind   Kind
	bounds []time.Duration // histograms only
	series map[string]*series
}

// series is one labelled instrument inside a family.
type series struct {
	labels []string // flattened key, value pairs, sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds the instruments of one process (typically one server).
// Construct with New; all methods are safe for concurrent use, and all
// methods on a nil *Registry are no-ops.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	now      func() time.Time
	ring     *ring
}

// New returns an empty registry on the wall clock.
func New() *Registry {
	return &Registry{families: make(map[string]*family), now: time.Now}
}

// SetClock injects the time source used by spans and events; nil
// restores time.Now. Inject before instrumentation starts.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Now reads the registry clock. On a nil registry it falls back to
// time.Now, so callers can time work with an optional registry without
// branching.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Now()
	}
	r.mu.RLock()
	now := r.now
	r.mu.RUnlock()
	return now()
}

// labelKey canonicalises flattened key/value pairs: sorted by key,
// rendered in the Prometheus label syntax. It is the series identity
// within a family.
func labelKey(kv []string) (string, []string) {
	if len(kv) == 0 {
		return "", nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	flat := make([]string, 0, len(kv))
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
		flat = append(flat, p.k, p.v)
	}
	return b.String(), flat
}

// lookup returns the series for (name, labels), creating family and
// series on first use. A kind conflict on an existing name panics: two
// call sites disagreeing about what a metric is can only be a bug.
func (r *Registry) lookup(name string, kind Kind, bounds []time.Duration, kv []string) *series {
	key, flat := labelKey(kv)
	r.mu.RLock()
	f := r.families[name]
	if f != nil {
		if s, ok := f.series[key]; ok {
			if f.kind != kind {
				r.mu.RUnlock()
				panic(fmt.Sprintf("obs: metric %s registered as %v, requested as %v", name, f.kind, kind))
			}
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.families[name]
	if f == nil {
		if kind == KindHistogram && len(bounds) == 0 {
			bounds = DefaultLatencyBuckets
		}
		f = &family{kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %v, requested as %v", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: flat}
		switch kind {
		case KindCounter:
			s.c = &Counter{}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name and the flattened label
// key/value pairs, registering it on first use. Resolve once and keep
// the handle: the returned Counter's methods are the allocation-free
// hot path. Nil registry: returns nil (which is itself a no-op).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, nil, labels).c
}

// Gauge returns the gauge for name and labels, registering it on first
// use. Nil registry: returns nil.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, nil, labels).g
}

// Histogram returns the histogram for name and labels with the default
// latency buckets, registering it on first use. Nil registry: returns
// nil.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, nil, labels).h
}

// HistogramBuckets is Histogram with explicit upper bounds (ascending).
// The bounds of a family are fixed by its first registration; later
// calls with different bounds reuse the existing family's.
func (r *Registry) HistogramBuckets(name string, bounds []time.Duration, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, bounds, labels).h
}

// Series is one materialised metric series in a Snapshot.
type Series struct {
	// Name is the family name; Labels the flattened sorted key/value
	// pairs of this series.
	Name   string
	Labels []string
	// Kind says which of Value and Hist is meaningful.
	Kind Kind
	// Value carries counter and gauge readings.
	Value int64
	// Hist carries the histogram state.
	Hist *HistogramSnapshot
}

// Label returns the value of the named label, or "".
func (s Series) Label(key string) string {
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if s.Labels[i] == key {
			return s.Labels[i+1]
		}
	}
	return ""
}

// Snapshot materialises every series, sorted by family name then label
// key, so iteration (and exposition built on it) is deterministic. Nil
// registry: returns nil.
func (r *Registry) Snapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Series
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			sr := Series{Name: name, Labels: s.labels, Kind: f.kind}
			switch f.kind {
			case KindCounter:
				sr.Value = s.c.Value()
			case KindGauge:
				sr.Value = s.g.Value()
			case KindHistogram:
				sr.Hist = s.h.Snapshot()
			}
			out = append(out, sr)
		}
	}
	return out
}
