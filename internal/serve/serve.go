// Package serve turns the analysis facade into a long-running service
// that degrades instead of dying. The paper's point (§4–§6) is that
// reduced analyses are cheap enough to answer on demand; this layer is
// what makes "on demand" survivable when hundreds of concurrent,
// possibly hostile, possibly explosive graphs arrive at once:
//
//	admission control — a bounded queue plus a global work-unit pool
//	    (guard.Pool) fed by per-request static cost estimates; requests
//	    that do not fit are refused instantly with ErrOverloaded.
//	per-engine circuit breakers — guard.Breaker around each throughput
//	    engine, tripped by failure/panic/deadline streaks; a sick engine
//	    is shed from the hedged policy (HedgeOptions.Gate) while the
//	    remaining engines keep answering, then probed half-open until it
//	    recovers.
//	singleflight result cache — identical in-flight requests join one
//	    computation; certified results are kept in a bounded LRU.
//	graceful drain — Drain stops admission, waits for in-flight work
//	    under the caller's deadline, then cancels stragglers through the
//	    server's base context; the whole thing is goroutine-leak-free.
//
// The package contains no HTTP specifics beyond http.go's thin handler;
// cmd/sdfserved is the daemon around it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// Sentinel errors of the serving layer.
var (
	// ErrOverloaded marks a request refused by admission control: the
	// queue is full or the work pool cannot fit the request's estimated
	// cost. Clients should back off and retry (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("serve: server overloaded")
	// ErrDraining marks a request refused because the server is
	// shutting down (HTTP 503).
	ErrDraining = errors.New("serve: server draining")
	// ErrInjectionDisabled marks a request carrying fault-injection
	// directives on a server that does not allow them.
	ErrInjectionDisabled = errors.New("serve: fault injection disabled on this server")
)

// Options configures a Server. The zero value gives a small but fully
// functional server.
type Options struct {
	// Workers bounds concurrently running analyses; default 4.
	Workers int
	// QueueDepth bounds requests waiting for a worker on top of the
	// running ones; default 64. Waiting requests hold their admission
	// slot, so Workers+QueueDepth is the hard cap on requests inside
	// the server.
	QueueDepth int
	// PoolCapacity is the global admission pool in abstract work units
	// (see EstimateCost); default 1<<20.
	PoolCapacity int64
	// CacheEntries bounds the result LRU; default 256.
	CacheEntries int
	// DefaultTimeout is the per-request analysis deadline when the
	// request names none; default 5s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines; default 30s.
	MaxTimeout time.Duration
	// Breaker configures every per-engine circuit breaker of the hedged
	// policy's engines (analysis.DefaultEngines).
	Breaker guard.BreakerOptions
	// AllowInjection permits requests to arm per-request faults. Only
	// ever enable it for soak tests; it is how the failure paths are
	// exercised deterministically through the real wire format.
	AllowInjection bool
	// CacheTTL is how long a cached result stays fresh. Past it, the
	// exact path recomputes — but the entry remains servable, marked
	// stale, at the degradation ladder's stale-cache level. 0 (the
	// default) means entries never go stale.
	CacheTTL time.Duration
	// DegradeHold is how long the pressure signal must stay below the
	// current degradation level before the controller steps down one
	// rung; default 2s. Escalation is always immediate.
	DegradeHold time.Duration
	// DegradeTargetP99 is the recent-p99 latency past which the
	// controller browns out even with a shallow queue; default 1s.
	DegradeTargetP99 time.Duration
	// Obs, when non-nil, receives every metric and event the server
	// produces: request outcomes and latencies, per-engine wall times,
	// cache traffic, breaker transitions. The registry is also injected
	// into every analysis context, so the engines' attempt counters and
	// per-phase spans land in the same place. A nil registry costs one
	// nil check per instrumentation point.
	Obs *obs.Registry
}

func (o Options) normalized() Options {
	if o.Workers < 1 {
		o.Workers = 4
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 64
	}
	if o.PoolCapacity < 1 {
		o.PoolCapacity = 1 << 20
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 256
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Second
	}
	return o
}

// Server is the concurrent analysis front-end. Construct with New;
// safe for concurrent use.
type Server struct {
	opts     Options
	reg      *obs.Registry
	breakers map[analysis.Method]*guard.Breaker
	pool     *guard.Pool
	cache    *resultCache
	memo     *reductionMemo
	flights  *flightGroup
	ctrl     *controller

	// refreshWG tracks background stale-cache refreshers so Drain and
	// Close never leak a goroutine past the server's lifetime.
	refreshWG sync.WaitGroup

	// slots bounds requests inside the server (running + waiting);
	// work bounds running analyses.
	slots chan struct{}
	work  chan struct{}

	// baseCtx parents every analysis context; baseCancel is the drain
	// deadline's hammer for stragglers.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	active   int
	drained  chan struct{}

	running    atomic.Int64
	admitted   atomic.Int64
	served     atomic.Int64
	failed     atomic.Int64
	overloaded atomic.Int64
}

// New returns a ready Server.
func New(opts Options) *Server {
	opts = opts.normalized()
	s := &Server{
		opts:     opts,
		reg:      opts.Obs,
		breakers: make(map[analysis.Method]*guard.Breaker),
		pool:     guard.NewPool(opts.PoolCapacity),
		cache:    newResultCache(opts.CacheEntries, opts.CacheTTL, opts.Obs),
		memo:     newReductionMemo(opts.CacheEntries, opts.Obs),
		flights:  newFlightGroup(opts.Obs),
		ctrl: newController(opts.Workers, opts.Workers+opts.QueueDepth,
			opts.DegradeTargetP99, opts.DegradeHold, opts.Obs),
		slots:   make(chan struct{}, opts.Workers+opts.QueueDepth),
		work:    make(chan struct{}, opts.Workers),
		drained: make(chan struct{}),
	}
	for _, m := range analysis.DefaultEngines() {
		bo := opts.Breaker
		eng := m.String()
		user := bo.OnTransition
		// Every breaker transition lands in the registry; opens — the
		// trip the operator pages on — also count separately and leave
		// an event in the ring.
		bo.OnTransition = func(from, to guard.BreakerState) {
			s.reg.Counter(obs.MetricBreakerTransitions, "engine", eng, "to", to.String()).Inc()
			if to == guard.BreakerOpen {
				s.reg.Counter(obs.MetricBreakerTrips, "engine", eng).Inc()
				s.reg.Emit("breaker.open", "engine", eng, "from", from.String())
			}
			if user != nil {
				user(from, to)
			}
		}
		s.breakers[m] = guard.NewBreaker(bo)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Registry returns the observability registry the server was built with
// (nil when observability is off). The HTTP layer serves it.
func (s *Server) Registry() *obs.Registry { return s.reg }

// outcomeOf classifies an Analyze error for the request counter.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "served"
	case errors.Is(err, ErrDraining):
		return "refused-draining"
	case errors.Is(err, ErrOverloaded):
		return "refused-overloaded"
	case errors.Is(err, ErrInjectionDisabled):
		return "refused-injection"
	case errors.Is(err, ErrDegraded):
		return "refused-degraded"
	default:
		return "failed"
	}
}

// Analyze admits, deduplicates and executes one request. The returned
// error classifies with errors.Is against ErrOverloaded, ErrDraining,
// guard.ErrBudgetExceeded, guard.ErrCanceled, guard.ErrEngineFailed,
// guard.ErrBreakerOpen and the lint precondition errors; KindOf maps
// the classification to a stable wire string.
//
// ctx governs only how long this caller waits: the analysis itself
// runs under the server's base context and the request deadline, so a
// deduplicated computation is never killed by one impatient client.
func (s *Server) Analyze(ctx context.Context, req *Request) (*ResultPayload, error) {
	return serveRequest[*ResultPayload](ctx, s, &graphJob{req: req}, req.ExactOnly)
}

// workload is what the request driver needs from one kind of analysis
// request; R is its wire payload. The two implementations are graphJob
// (one SDF graph: /v1/throughput and every batch item) and sadfJob (one
// FSM-SADF model: /v1/sadf). Everything else — admission, the bounded
// queue, exact-only gating, the brownout ladder, the cache and
// singleflight, stale refresh, the pool/worker/deadline scaffold, the
// served/failed accounting — is the driver's, once.
type workload[R any] interface {
	// prepare runs the cheap structural prechecks, the reduction and the
	// admission pricing, before any pool budget is reserved.
	prepare(s *Server) error
	// key is the cache and singleflight key of the exact answer. "" marks
	// a deliberately sick request: it bypasses the cache, singleflight and
	// the brownout ladder, so its faults fire in the engine it names.
	key() string
	// execute computes the exact answer inside Server.execute.
	execute(s *Server) (*answer, error)
	// bounded is the brownout answer of the bounded and stale-cache
	// levels.
	bounded(ctx context.Context, s *Server) (R, error)
	// render turns an exact answer — fresh, cached, deduplicated or
	// stale — into the payload, re-checking its certificate on every
	// serve.
	render(ans *answer) (R, error)
	// record lands one finished request in the workload's metrics.
	record(reg *obs.Registry, outcome string, elapsed time.Duration)
}

// serveRequest drives one request of any workload through admission,
// the bounded queue, prepare and the degradation ladder, and records
// its outcome.
func serveRequest[R any](ctx context.Context, s *Server, w workload[R], exactOnly bool) (R, error) {
	start := s.reg.Now()
	res, err := admitRequest(ctx, s, w, exactOnly)
	elapsed := s.reg.Now().Sub(start)
	outcome := outcomeOf(err)
	// The pressure signal samples only requests that did real work:
	// refusals return in microseconds and would talk the p99 and the
	// drain estimate down exactly when they should be going up.
	if outcome == "served" || outcome == "failed" {
		s.ctrl.observe(elapsed)
	}
	w.record(s.reg, outcome, elapsed)
	return res, err
}

func admitRequest[R any](ctx context.Context, s *Server, w workload[R], exactOnly bool) (res R, err error) {
	if err := s.admit(); err != nil {
		return res, err
	}
	defer s.finish()

	// Bounded queue: a server already holding Workers+QueueDepth
	// requests refuses instantly rather than buffering unboundedly.
	select {
	case s.slots <- struct{}{}:
	default:
		// A full house is the strongest pressure signal there is: feed
		// it to the controller even though this request is refused, so
		// the ladder is already at shed for the next arrival.
		s.ctrl.update(cap(s.slots))
		s.overloaded.Add(1)
		return res, fmt.Errorf("%w: all %d request slots taken", ErrOverloaded, cap(s.slots))
	}
	defer func() { <-s.slots }()
	s.admitted.Add(1)

	// The degradation level of this request, decided at entry from the
	// queue depth just observed (this request included) and the recent
	// latency window.
	level := s.ctrl.update(len(s.slots))
	if err = w.prepare(s); err == nil {
		res, err = serveAdmitted(ctx, s, w, exactOnly, level)
	}
	s.settle(err)
	return res, err
}

// settle counts an admitted request's fate. Refusals by the degradation
// ladder or the injection gate are neither served nor failed.
func (s *Server) settle(err error) {
	switch {
	case err == nil:
		s.served.Add(1)
	case !errors.Is(err, ErrDegraded) && !errors.Is(err, ErrInjectionDisabled):
		s.failed.Add(1)
	}
}

// serveAdmitted answers one admitted, prepared request at the given
// degradation level: exact-only gating, then the brownout ladder or the
// cache/singleflight discipline around the workload's execution, then
// its render. Single requests and batch items both come through here,
// so admission economics and certificate discipline are identical for
// every workload.
func serveAdmitted[R any](ctx context.Context, s *Server, w workload[R], exactOnly bool, level Level) (R, error) {
	var zero R
	if exactOnly && level > LevelExact {
		s.reg.Counter(obs.MetricDegraded, "level", "exact-only").Inc()
		return zero, fmt.Errorf("%w: serving at level %s and the request is exact-only", ErrDegraded, level)
	}
	key := w.key()
	var ans *answer
	var err error
	switch {
	case key == "":
		ans, err = w.execute(s)
	case level > LevelExact:
		return serveDegraded(ctx, s, w, key, level)
	default:
		ans, err = s.dispatch(ctx, key, func() (*answer, error) { return w.execute(s) })
	}
	if err != nil {
		return zero, err
	}
	return w.render(ans)
}

// serveDegraded is the brownout ladder: under pressure the server
// answers with the best certified thing it can afford instead of
// refusing. A fresh cache hit is free and full-fidelity at any level; at
// stale-cache and shed an expired entry is served marked stale with a
// background singleflight refresh; what remains gets the workload's
// bounded answer at the bounded and stale-cache levels, and is refused
// outright at shed.
func serveDegraded[R any](ctx context.Context, s *Server, w workload[R], key string, level Level) (R, error) {
	if ans, stale, ok := s.cache.getStale(key); ok && (!stale || level >= LevelStale) {
		// A render failure means the cached entry no longer checks; fall
		// through to a fresh degraded answer.
		if res, err := w.render(ans); err == nil {
			if stale {
				s.reg.Counter(obs.MetricDegraded, "level", LevelStale.String()).Inc()
				s.spawnRefresh(key, func() (*answer, error) { return w.execute(s) })
			}
			return res, nil
		}
	}
	if level >= LevelShed {
		s.reg.Counter(obs.MetricDegraded, "level", LevelShed.String()).Inc()
		var zero R
		return zero, fmt.Errorf("%w: shedding fresh work and no cached answer exists", ErrDegraded)
	}
	res, err := w.bounded(ctx, s)
	if err == nil {
		s.reg.Counter(obs.MetricDegraded, "level", LevelBounded.String()).Inc()
	}
	return res, err
}

// spawnRefresh recomputes a stale cache entry in the background,
// singleflighted against identical live requests and refreshers. The
// goroutine is tracked by refreshWG and runs under the server's base
// context, so drain and close wait for it rather than leak it.
func (s *Server) spawnRefresh(key string, exec func() (*answer, error)) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.refreshWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.refreshWG.Done()
		f, leader := s.flights.join(key)
		if !leader {
			// An identical computation is already in flight; its result
			// will land in the cache.
			return
		}
		res, err := exec()
		if err == nil {
			s.cache.put(key, res)
		}
		s.flights.finish(key, f, res, err)
	}()
}

// answer is the engine-layer result before rendering: the throughput
// of the analysed (possibly reduced) graph plus its certificate object.
// Keeping the certificate as an object — not a rendered string — is
// what lets render lift it through each request's own reduction chain.
type answer struct {
	engine  string
	tp      analysis.Throughput
	cert    *verify.ThroughputCert
	report  []string
	cached  bool
	deduped bool
	// stale marks a copy served from an expired cache entry.
	stale bool

	// bound and redCert carry a brownout answer: the two-sided period
	// enclosure and the reduction-chain certificate that proves its
	// conservativeness against the original graph. Exactly one of
	// (tp, cert) and (bound, redCert) is populated.
	bound   *analysis.Bound
	redCert *verify.ReductionCert

	// sadf carries an FSM-SADF answer: the automaton analysis result
	// and its scenario-level certificate. When set, every field above
	// except the bookkeeping (engine, cached, deduped, stale) is empty.
	sadf *sadfAnswer
}

// dispatch is the cache/singleflight discipline for any keyed
// computation: serve a fresh cached answer, join an identical in-flight
// one, or lead the computation and publish its result.
func (s *Server) dispatch(ctx context.Context, key string, exec func() (*answer, error)) (*answer, error) {
	if res, ok := s.cache.get(key); ok {
		return res, nil
	}
	f, leader := s.flights.join(key)
	if !leader {
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			res := *f.res
			res.deduped = true
			return &res, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", guard.ErrCanceled, context.Cause(ctx))
		}
	}
	res, err := exec()
	if err == nil {
		s.cache.put(key, res)
	}
	s.flights.finish(key, f, res, err)
	return res, err
}

// clampTimeout applies the server default and maximum to a requested
// deadline.
func (s *Server) clampTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.opts.DefaultTimeout
	}
	return min(d, s.opts.MaxTimeout)
}

// execute reserves cost units of the admission pool and a worker slot,
// then calls run under the request's clamped deadline on the server's
// base context. The queue's deadline discipline: waiting for a worker
// burns the request's own deadline, never more.
func (s *Server) execute(cost int64, timeout time.Duration, run func(context.Context) (*answer, error)) (*answer, error) {
	if !s.pool.TryAcquire(cost) {
		s.overloaded.Add(1)
		return nil, fmt.Errorf("%w: request cost %d exceeds pool headroom %d",
			ErrOverloaded, cost, s.pool.Headroom())
	}
	defer s.pool.Release(cost)

	ctx, cancel := context.WithTimeout(s.baseCtx, s.clampTimeout(timeout))
	defer cancel()
	// The engines, meters and injectors all read the registry from the
	// context; a nil registry drops out here as a no-op.
	ctx = obs.WithRegistry(ctx, s.reg)

	select {
	case s.work <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: queued past the deadline: %w", guard.ErrCanceled, context.Cause(ctx))
	}
	defer func() { <-s.work }()
	s.running.Add(1)
	defer s.running.Add(-1)
	return run(ctx)
}

// graphJob is the single-graph workload: one throughput request. The
// engines, the pool and the cache all see the reduced graph, and the
// answer is lifted back per request.
type graphJob struct {
	req   *Request
	facts *passes.Facts     // the original graph's table, built once by the precheck
	red   *passes.Reduction // nil when no reduction applied
	cost  int64             // admission price of the graph the engines see
	// origKey is req.Key(); redKey is the key of red.Final. Neither is
	// set on a fault-injected request.
	origKey, redKey string
}

// prepare gates fault injection, runs the structural prechecks (an
// inconsistent or deadlocked graph costs the server almost nothing)
// and the reduction fixpoint from the precheck's fact table, and prices
// the request by the graph the engines will see.
// Fault-injected requests skip the reduction — their faults must fire
// in the engine they name, on the graph the test wrote — and a
// reduction that fails or achieves nothing leaves the original graph.
// The fixpoint's outcome is memoized per request key, so a repeated
// request skips it.
func (j *graphJob) prepare(s *Server) error {
	if len(j.req.Faults) > 0 && !s.opts.AllowInjection {
		return ErrInjectionDisabled
	}
	j.facts = passes.NewFacts(j.req.Graph)
	sp := s.reg.StartSpan("analysis.precheck")
	err := lint.PrecheckWith(j.facts)
	sp.Finish()
	if err != nil {
		return err
	}
	j.cost = j.facts.Cost()
	if len(j.req.Faults) > 0 {
		return nil
	}
	j.origKey = j.req.Key()
	if e, ok := s.memo.get(j.origKey); ok {
		j.red, j.cost, j.redKey = e.red, e.cost, e.key
		return nil
	}
	rctx := obs.WithRegistry(s.baseCtx, s.reg)
	r, err := j.facts.Reduce(rctx, passes.Options{})
	if err != nil {
		// A failed fixpoint leaves the original graph and is not
		// memoized: it may have been cut short by the server closing.
		return nil
	}
	if len(r.Steps) > 0 {
		red := *j.req
		red.Graph = r.Final
		j.red, j.cost, j.redKey = r, r.Facts().Cost(), red.Key()
	}
	s.memo.put(j.origKey, memoEntry{red: j.red, cost: j.cost, key: j.redKey})
	return nil
}

// key is the canonical key of the graph the engines see, so two
// originals that reduce to the same graph share the entry but not the
// lift.
func (j *graphJob) key() string {
	if j.red != nil {
		return j.redKey
	}
	return j.origKey
}

func (j *graphJob) execute(s *Server) (*answer, error) {
	g := j.req.Graph
	if j.red != nil {
		g = j.red.Final
	}
	return s.execute(j.cost, j.req.Timeout, func(ctx context.Context) (*answer, error) {
		budget := guard.BudgetFrom(ctx)
		if j.req.Budget != 0 {
			budget = guard.Uniform(j.req.Budget)
		}
		if len(j.req.Faults) > 0 {
			// Injected requests poll every work unit so counter-based
			// faults fire deterministically even on tiny graphs whose hot
			// loops would otherwise never reach an amortised checkpoint.
			budget.CheckEvery = 1
			ctx = guard.WithInjector(ctx, guard.NewInjector(j.req.Faults...))
		}
		ctx = guard.WithBudget(ctx, budget)
		if j.req.Method == "hedged" {
			return s.runHedged(ctx, g)
		}
		return s.runSingle(ctx, g, j.req.Method)
	})
}

// bounded answers with a certified conservative enclosure from
// analysis.ComputeThroughputBounded, cached and deduplicated under its
// own key space (a bounded answer must never impersonate an exact one).
// It still takes a worker slot — bounded work is cheap, not free — but
// charges the pool at most the bounded ceiling, a cost the server can
// always afford, and ignores the request's own budget: the ceiling is
// the contract, below anything a client would reasonably ask for.
func (j *graphJob) bounded(ctx context.Context, s *Server) (*ResultPayload, error) {
	orig := j.req.Graph
	ans, err := s.dispatch(ctx, "bounded|"+j.origKey, func() (*answer, error) {
		cost := min(j.facts.Cost(), analysis.DefaultBoundedCeiling)
		return s.execute(cost, j.req.Timeout, func(ctx context.Context) (*answer, error) {
			b, cert, err := analysis.ComputeThroughputBounded(ctx, orig, analysis.BoundedOptions{})
			if err != nil {
				return nil, err
			}
			return &answer{engine: "bounded", bound: &b, redCert: cert}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	// The conservativeness certificate is re-checked against the
	// original graph in exact arithmetic on every serve — cached entries
	// included — before the payload claims Verified; the check is capped
	// by the same ceiling that produced the answer, so it cannot become
	// the new overload.
	if err := ans.redCert.Check(context.Background(), orig); err != nil {
		return nil, fmt.Errorf("serve: bounded certificate rejected: %w", err)
	}
	b := ans.bound
	res := &ResultPayload{
		Graph:       orig.Name(),
		Engine:      ans.engine,
		Unbounded:   b.Unbounded,
		Verified:    true,
		Certificate: ans.redCert.String(),
		Degradation: LevelBounded.String(),
		Cached:      ans.cached,
		Deduped:     ans.deduped,
	}
	if !b.Unbounded {
		res.Period, res.PeriodNum, res.PeriodDen = ratWire(b.Upper)
		if !b.Exact && !b.Lower.IsZero() {
			res.PeriodLower, res.PeriodLowerNum, res.PeriodLowerDen = ratWire(b.Lower)
		}
	}
	return res, nil
}

func (j *graphJob) render(ans *answer) (*ResultPayload, error) {
	var res *ResultPayload
	if j.red == nil {
		res = buildResult(j.req.Graph, ans.engine, ans.tp, ans.cert)
	} else {
		var err error
		if res, err = j.lift(ans); err != nil {
			return nil, err
		}
	}
	res.Report = ans.report
	res.Cached, res.Deduped, res.Stale = ans.cached, ans.deduped, ans.stale
	if ans.stale {
		res.Degradation = LevelStale.String()
	}
	return res, nil
}

// lift renders an answer through the request's reduction chain. Every
// exact answer carries its engine's certificate; the lifted certificate
// is re-checked against the original graph before the payload claims
// Verified — the chain, not the server, is the proof.
func (j *graphJob) lift(ans *answer) (*ResultPayload, error) {
	orig := j.req.Graph
	lifted, err := j.red.LiftCert(ans.cert)
	if err != nil {
		return nil, fmt.Errorf("serve: lift: %w", err)
	}
	// The check is pure bounded CPU on a graph that already passed
	// admission; it deliberately runs outside the request deadline so a
	// last-millisecond expiry cannot turn a correct answer into an error.
	if err := lifted.Check(context.Background(), orig); err != nil {
		return nil, fmt.Errorf("serve: lifted certificate rejected: %w", err)
	}
	res := &ResultPayload{
		Graph:       orig.Name(),
		Engine:      ans.engine,
		Unbounded:   lifted.Unbounded,
		Verified:    true,
		Certificate: lifted.String(),
		Reduction:   j.red.Trace(),
	}
	if !lifted.Unbounded {
		res.Period, res.PeriodNum, res.PeriodDen = ratWire(lifted.Period)
	}
	return res, nil
}

func (j *graphJob) record(reg *obs.Registry, outcome string, elapsed time.Duration) {
	reg.Histogram(obs.MetricRequestSeconds, "method", j.req.Method).Observe(elapsed)
	reg.Counter(obs.MetricRequests, "outcome", outcome).Inc()
}

// runHedged runs the hedged engine policy over the breaker-gated
// engines and feeds every attempt's outcome back into its breaker.
func (s *Server) runHedged(ctx context.Context, g *sdf.Graph) (*answer, error) {
	tp, rep, err := analysis.ComputeThroughputHedgedOpts(ctx, g, analysis.HedgeOptions{Gate: s.gate})
	if rep != nil {
		s.recordOutcomes(rep.Attempts)
	}
	if err != nil {
		return nil, err
	}
	return &answer{
		engine: rep.Winner.String(),
		tp:     tp,
		cert:   rep.Certificate,
		report: rep.Lines(),
	}, nil
}

// runSingle runs one named engine behind its breaker.
func (s *Server) runSingle(ctx context.Context, g *sdf.Graph, method string) (*answer, error) {
	var m analysis.Method
	switch method {
	case "matrix":
		m = analysis.Matrix
	case "statespace":
		m = analysis.StateSpace
	case "hsdf":
		m = analysis.HSDF
	default:
		return nil, fmt.Errorf("%w: unknown method %q", ErrBadRequest, method)
	}
	if err := s.gate(m); err != nil {
		return nil, err
	}
	start := s.reg.Now()
	tp, cert, err := analysis.ComputeThroughputCertified(ctx, g, m)
	s.recordOutcomes([]analysis.EngineAttempt{{Method: m, Err: err, Wall: s.reg.Now().Sub(start)}})
	if err != nil {
		return nil, err
	}
	return &answer{engine: m.String(), tp: tp, cert: cert}, nil
}

// gate is the HedgeOptions.Gate of this server: it consults the
// engine's breaker, reserving the half-open probe slot on admission.
func (s *Server) gate(m analysis.Method) error {
	b := s.breakers[m]
	if b == nil {
		return nil
	}
	if err := b.Allow(); err != nil {
		return fmt.Errorf("%w: the %s engine is shed until its cooldown expires", err, m)
	}
	return nil
}

// recordOutcomes feeds engine attempts back into the breakers. Gated
// attempts (skipped with the gate's error) reserved nothing; admitted
// engines the policy never ran and budget refusals are forgiven — they
// say nothing about engine health; engine failures, panics and deadline
// hits are the trip-worthy streaks.
func (s *Server) recordOutcomes(attempts []analysis.EngineAttempt) {
	for _, at := range attempts {
		if !at.Skipped && at.Wall > 0 {
			s.reg.Histogram(obs.MetricEngineSeconds, "engine", at.Method.String()).Observe(at.Wall)
		}
		b := s.breakers[at.Method]
		if b == nil {
			continue
		}
		switch {
		case at.Skipped && at.Err != nil:
			// Shed by the gate before it ran: no reservation to settle.
		case at.Skipped:
			b.Forgive()
		case at.Err == nil:
			b.Success()
		case tripworthy(at.Err):
			b.Failure()
		default:
			b.Forgive()
		}
	}
}

// tripworthy reports whether an engine error indicates engine sickness
// (internal failure, isolated panic, deadline blow-through) as opposed
// to a property of the request (budget refusal, cancellation).
func tripworthy(err error) bool {
	return errors.Is(err, guard.ErrEngineFailed) || errors.Is(err, context.DeadlineExceeded)
}

// buildResult renders a throughput (plus optional certificate) into the
// wire form.
func buildResult(g *sdf.Graph, engine string, tp analysis.Throughput, cert *verify.ThroughputCert) *ResultPayload {
	res := &ResultPayload{
		Graph:     g.Name(),
		Engine:    engine,
		Unbounded: tp.Unbounded,
	}
	if !tp.Unbounded {
		res.Period, res.PeriodNum, res.PeriodDen = ratWire(tp.Period)
	}
	if cert != nil {
		res.Verified = true
		res.Certificate = cert.String()
	}
	return res
}

// ratWire renders an exact rational into the wire's three fields: the
// string form, numerator and denominator.
func ratWire(p rat.Rat) (string, int64, int64) { return p.String(), p.Num(), p.Den() }

// admit reserves one in-flight slot unless the server is draining.
func (s *Server) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	s.active++
	return nil
}

// finish releases the in-flight slot and completes a pending drain when
// it was the last one.
func (s *Server) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if s.draining && s.active == 0 {
		s.closeDrainedLocked()
	}
}

func (s *Server) closeDrainedLocked() {
	select {
	case <-s.drained:
	default:
		close(s.drained)
	}
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: it stops admission
// immediately, waits for in-flight requests to finish, and — if ctx
// expires first — cancels the stragglers through the base context and
// waits for them to unwind (they observe the cancellation at their next
// guard checkpoint). The returned error is nil for a clean drain and
// ctx's cause when the hammer was needed. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.active == 0 {
			s.closeDrainedLocked()
		}
	}
	s.mu.Unlock()

	// A clean drain also waits for background stale-cache refreshers:
	// they run under the base context, so the deadline hammer below
	// reaches them the same way it reaches request stragglers.
	done := make(chan struct{})
	go func() {
		<-s.drained
		s.refreshWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return fmt.Errorf("serve: drain deadline hit, stragglers cancelled: %w", context.Cause(ctx))
	}
}

// Close abandons the server without waiting: admission stops and every
// in-flight analysis is cancelled. Intended for tests and fatal paths;
// prefer Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	if s.active == 0 {
		s.closeDrainedLocked()
	}
	s.mu.Unlock()
	s.baseCancel()
	s.refreshWG.Wait()
}
