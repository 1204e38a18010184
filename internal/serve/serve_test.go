package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/testutil"
)

// noLeaks asserts the serving layer and its engine racers left no
// goroutine behind.
func noLeaks(t *testing.T) {
	t.Helper()
	testutil.FailOnLeakedGoroutines(t, "repro/internal/serve")
	testutil.FailOnLeakedGoroutines(t, "repro/internal/analysis")
}

// fakeClock drives breaker cooldowns without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func figure2Request(t *testing.T, method string) *Request {
	t.Helper()
	return &Request{Graph: gen.Figure2(), Method: method}
}

// injected builds a request for g that arms the given faults.
func injected(g *sdf.Graph, method string, faults ...guard.Fault) *Request {
	return &Request{Graph: g, Method: method, Faults: faults}
}

// TestAnalyzeN2001Verified serves, with default options, a graph of
// N = 2001 tokens and Σq = 3003 firings: inside the default budget, and
// past the 2^22 replay cap where a matrix certificate used to bind only
// the row maxima. The answer must be the exact period 11 with a
// matrix-anchored certificate checked in full.
func TestAnalyzeN2001Verified(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	res, err := s.Analyze(context.Background(), &Request{Graph: testutil.N2001Graph(), Method: "hedged"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Unbounded || res.Period != "11" || res.PeriodNum != 11 || res.PeriodDen != 1 || res.Degradation != "" {
		t.Fatalf("answer = %+v, want the verified exact period 11", res)
	}
	if !strings.HasPrefix(res.Certificate, "throughput certificate [matrix anchor]: period 11") {
		t.Errorf("certificate = %q, want the matrix anchor", res.Certificate)
	}
}

func TestAnalyzeHedged(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	want, err := analysis.ComputeThroughput(gen.Figure2(), analysis.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Unbounded || res.Period != want.Period.String() {
		t.Errorf("period = %q, want %q", res.Period, want.Period)
	}
	if !res.Verified || res.Certificate == "" {
		t.Errorf("result not verified: %+v", res)
	}
	if len(res.Report) == 0 {
		t.Error("no race report")
	}
	if res.Cached || res.Deduped {
		t.Errorf("first answer claims cached=%v deduped=%v", res.Cached, res.Deduped)
	}
}

func TestAnalyzeSingleEngines(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	for _, m := range []string{"matrix", "statespace", "hsdf"} {
		res, err := s.Analyze(context.Background(), figure2Request(t, m))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Engine != m || !res.Verified {
			t.Errorf("%s: engine=%q verified=%v", m, res.Engine, res.Verified)
		}
	}
}

func TestCacheHit(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	first, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical repeat not served from the cache")
	}
	if second.Period != first.Period {
		t.Errorf("cached period %q != first %q", second.Period, first.Period)
	}
	// A different method is a different question: no false sharing.
	other, err := s.Analyze(context.Background(), figure2Request(t, "matrix"))
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different method served from the cache")
	}
	h := s.Health()
	if h.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", h.CacheHits)
	}
}

// TestSingleflightDedup joins a follower onto a registered in-flight
// computation (white-box, so the overlap is deterministic) and asserts
// the follower receives the leader's result marked as deduplicated.
func TestSingleflightDedup(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	req := figure2Request(t, "hedged")
	key := req.Key()
	f, leader := s.flights.join(key)
	if !leader {
		t.Fatal("fresh key not led")
	}

	type out struct {
		res *ResultPayload
		err error
	}
	got := make(chan out, 1)
	go func() {
		res, err := s.Analyze(context.Background(), req)
		got <- out{res, err}
	}()
	// The follower must be parked on the flight, not computing: the
	// deduped counter ticks exactly when it joins.
	for s.flights.deduped.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	want := &answer{engine: "matrix", tp: analysis.Throughput{Period: rat.FromInt(7)}}
	s.flights.finish(key, f, want, nil)

	o := <-got
	if o.err != nil {
		t.Fatalf("follower: %v", o.err)
	}
	if !o.res.Deduped {
		t.Error("follower result not marked deduped")
	}
	if o.res.Period != rat.FromInt(7).String() {
		t.Errorf("follower period %q, want the leader's 7", o.res.Period)
	}
	if s.flights.deduped.Load() != 1 {
		t.Errorf("deduped counter = %d, want 1", s.flights.deduped.Load())
	}
}

// TestQueueOverflowRejects fills every admission slot (white-box) and
// asserts the next request is refused with ErrOverloaded instead of
// queueing unboundedly.
func TestQueueOverflowRejects(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	_, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}
	if h := s.Health(); h.Overloaded != 1 {
		t.Errorf("overloaded counter = %d, want 1", h.Overloaded)
	}
}

// TestPoolExhaustionRejects gives the server a pool smaller than one
// request's cost estimate.
func TestPoolExhaustionRejects(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{PoolCapacity: 3})
	defer s.Close()
	_, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded (pool)", err)
	}
}

func TestPrecheckRejectsBadGraphs(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()

	inconsistent := sdf.NewGraph("inconsistent")
	a := inconsistent.MustAddActor("A", 1)
	b := inconsistent.MustAddActor("B", 1)
	inconsistent.MustAddChannel(a, b, 2, 3, 0)
	inconsistent.MustAddChannel(b, a, 1, 1, 1)

	deadlocked := sdf.NewGraph("deadlocked")
	c := deadlocked.MustAddActor("C", 1)
	d := deadlocked.MustAddActor("D", 1)
	deadlocked.MustAddChannel(c, d, 1, 1, 0)
	deadlocked.MustAddChannel(d, c, 1, 1, 0)

	for name, g := range map[string]*sdf.Graph{"inconsistent": inconsistent, "deadlocked": deadlocked} {
		_, err := s.Analyze(context.Background(), &Request{Graph: g, Method: "hedged"})
		var pre *lint.PrecheckError
		if !errors.As(err, &pre) {
			t.Errorf("%s: err = %v, want *lint.PrecheckError", name, err)
		}
		if KindOf(err) != "precondition" {
			t.Errorf("%s: kind = %q, want precondition", name, KindOf(err))
		}
	}
	// Precondition failures never consume pool units.
	if used := s.pool.InUse(); used != 0 {
		t.Errorf("pool in use after prechecks = %d, want 0", used)
	}
}

func TestInjectionRefusedByDefault(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	req := injected(gen.Figure2(), "hedged",
		guard.Fault{Engine: "statespace", Point: guard.PointCheckpoint, Mode: guard.ModePanic})
	_, err := s.Analyze(context.Background(), req)
	if !errors.Is(err, ErrInjectionDisabled) {
		t.Fatalf("err = %v, want ErrInjectionDisabled", err)
	}
}

// TestBreakerTripsAndRecovers drives the full breaker lifecycle through
// the server on a single engine: injected panics trip it, requests are
// shed while open, the fake clock expires the cooldown, and a healthy
// probe closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	defer noLeaks(t)
	clk := &fakeClock{now: time.Unix(0, 0)}
	s := New(Options{
		AllowInjection: true,
		Breaker:        guard.BreakerOptions{Threshold: 2, Cooldown: time.Second, Now: clk.Now},
	})
	defer s.Close()
	panicSS := guard.Fault{Engine: "statespace", Point: guard.PointCheckpoint, Mode: guard.ModePanic, Times: -1}

	for i := 0; i < 2; i++ {
		_, err := s.Analyze(context.Background(), injected(gen.Figure2(), "statespace", panicSS))
		if !errors.Is(err, guard.ErrEngineFailed) {
			t.Fatalf("injected panic %d: err = %v, want ErrEngineFailed", i, err)
		}
	}
	if st := s.BreakerState("statespace"); st != "open" {
		t.Fatalf("breaker after %d panics = %s, want open", 2, st)
	}

	// While open, the engine is shed without running: even a request
	// that would panic succeeds... in being refused cheaply.
	_, err := s.Analyze(context.Background(), figure2Request(t, "statespace"))
	if !errors.Is(err, guard.ErrBreakerOpen) {
		t.Fatalf("open breaker: err = %v, want ErrBreakerOpen", err)
	}

	// Other engines are unaffected.
	if _, err := s.Analyze(context.Background(), figure2Request(t, "matrix")); err != nil {
		t.Fatalf("matrix while statespace open: %v", err)
	}

	// Cooldown over: the next request is the half-open probe; healthy
	// traffic closes the breaker.
	clk.Advance(time.Second)
	res, err := s.Analyze(context.Background(), &Request{Graph: gen.Figure3(4), Method: "statespace"})
	if err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if !res.Verified {
		t.Error("probe result not verified")
	}
	if st := s.BreakerState("statespace"); st != "closed" {
		t.Errorf("breaker after healthy probe = %s, want closed", st)
	}
}

// TestHedgedSurvivesSickEngine is the serving half of the acceptance
// scenario: with statespace panicking on every request, hedged requests
// keep answering via the other engines, the statespace breaker opens
// after the streak, and subsequent reports show the engine gated.
func TestHedgedSurvivesSickEngine(t *testing.T) {
	defer noLeaks(t)
	clk := &fakeClock{now: time.Unix(0, 0)}
	s := New(Options{
		AllowInjection: true,
		Breaker:        guard.BreakerOptions{Threshold: 3, Cooldown: time.Second, Now: clk.Now},
	})
	defer s.Close()
	panicSS := guard.Fault{Engine: "statespace", Point: guard.PointCheckpoint, Mode: guard.ModePanic, Times: -1}

	// Hedged requests survive the panicking engine: the race answers
	// through matrix/hsdf while statespace's isolated panic is recorded.
	res, err := s.Analyze(context.Background(), injected(gen.Figure2(), "hedged", panicSS))
	if err != nil {
		t.Fatalf("hedged with sick statespace: %v", err)
	}
	if res.Engine == "statespace" {
		t.Fatal("race won by the panicking engine")
	}

	// Trip the breaker with single-engine requests — nothing cancels
	// them, so the injected panic always fires. The hedged race above
	// may already have recorded the panic as one breaker failure
	// (whether it fired before the winner's cancellation is a
	// scheduling race), so later iterations may find the breaker
	// already open; both outcomes are engine-sickness refusals.
	for i := 0; i < 3; i++ {
		_, err := s.Analyze(context.Background(), injected(gen.Figure2(), "statespace", panicSS))
		if !errors.Is(err, guard.ErrEngineFailed) && !errors.Is(err, guard.ErrBreakerOpen) {
			t.Fatalf("injected statespace panic %d: err = %v, want ErrEngineFailed or ErrBreakerOpen", i, err)
		}
	}
	if st := s.BreakerState("statespace"); st != "open" {
		t.Fatalf("statespace breaker = %s, want open after 3 panics", st)
	}

	// With the breaker open, hedged requests keep succeeding without
	// statespace; the report says it was gated.
	res, err = s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if err != nil {
		t.Fatalf("hedged with statespace shed: %v", err)
	}
	report := strings.Join(res.Report, "\n")
	if !strings.Contains(report, "gated") || !strings.Contains(report, "statespace") {
		t.Errorf("report does not show statespace gated:\n%s", report)
	}
}

func TestDrainStopsAdmission(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	if _, err := s.Analyze(context.Background(), figure2Request(t, "hedged")); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	_, err := s.Analyze(context.Background(), figure2Request(t, "hedged"))
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Analyze: %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDrainCancelsStragglers starts an effectively unbounded analysis
// (exponential chain, unlimited budget, long deadline) and proves an
// expired drain deadline hammers it through the base context instead of
// waiting forever.
func TestDrainCancelsStragglers(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{MaxTimeout: time.Hour, DefaultTimeout: time.Hour})
	g, err := gen.ExponentialChain(40)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Analyze(context.Background(), &Request{Graph: g, Method: "matrix", Budget: -1})
		done <- err
	}()
	for s.Health().Running == 0 {
		time.Sleep(time.Millisecond)
	}

	drainCtx, cancel := context.WithCancel(context.Background())
	cancel() // the drain deadline is already over: hammer immediately
	if err := s.Drain(drainCtx); err == nil {
		t.Error("hammered drain reported clean")
	}
	if err := <-done; !errors.Is(err, guard.ErrCanceled) {
		t.Errorf("straggler err = %v, want ErrCanceled", err)
	}
}

func TestEstimateCost(t *testing.T) {
	small := EstimateCost(gen.Figure2())
	if small <= 0 {
		t.Fatalf("cost of figure2 = %d", small)
	}
	chain, err := gen.ExponentialChain(40)
	if err != nil {
		t.Fatal(err)
	}
	explosive := EstimateCost(chain)
	if explosive <= costClamp {
		t.Errorf("explosive cost %d not clamped up to at least %d", explosive, costClamp)
	}
	if explosive > costClamp+1024 {
		t.Errorf("explosive cost %d not clamped down", explosive)
	}
}

func TestRequestKeyDistinguishes(t *testing.T) {
	a := figure2Request(t, "hedged")
	b := figure2Request(t, "hedged")
	if a.Key() != b.Key() {
		t.Error("identical requests hash differently")
	}
	c := figure2Request(t, "matrix")
	if a.Key() == c.Key() {
		t.Error("different methods hash equal")
	}
	d := figure2Request(t, "hedged")
	d.Budget = 99
	if a.Key() == d.Key() {
		t.Error("different budgets hash equal")
	}
	mutated := gen.Figure2()
	if err := mutated.SetExec(0, 1234); err != nil {
		t.Fatal(err)
	}
	e := &Request{Graph: mutated, Method: "hedged"}
	if a.Key() == e.Key() {
		t.Error("different execution times hash equal")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, 0, nil)
	r := func(p string) *answer { return &answer{engine: p} }
	c.put("a", r("1"))
	c.put("b", r("2"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", r("3")) // evicts b (least recently used)
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("recently used a evicted")
	}
	if got, _ := c.get("c"); got == nil || !got.cached {
		t.Error("cache copy not marked cached")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}
