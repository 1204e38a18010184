package analysis

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/sdf"
	"repro/internal/testutil"
)

// Every hedging test asserts the race leaves no goroutine behind; the
// racer bodies live in this package, so any survivor's stack names it.
func noLeaks(t *testing.T) {
	t.Helper()
	testutil.FailOnLeakedGoroutines(t, "repro/internal/analysis.ComputeThroughputHedgedOpts")
}

func TestHedgedFirstVerifiedWins(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure2()
	want, err := ComputeThroughput(g, Matrix)
	if err != nil {
		t.Fatal(err)
	}
	tp, rep, err := ComputeThroughputHedged(context.Background(), g)
	if err != nil {
		t.Fatalf("hedged: %v\n%s", err, rep)
	}
	if tp.Unbounded || !tp.Period.Equal(want.Period) {
		t.Errorf("hedged period = %v, want %v", tp.Period, want.Period)
	}
	if !rep.Answered {
		t.Fatal("report does not mark an answer")
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("report has %d attempts, want 3:\n%s", len(rep.Attempts), rep)
	}
	cert := rep.Certificates[rep.Winner]
	if cert == nil {
		t.Fatalf("winner %v has no certificate", rep.Winner)
	}
	if err := cert.Check(context.Background(), g); err != nil {
		t.Errorf("winner's certificate does not re-verify: %v", err)
	}
}

func TestHedgedCrossCheckAllEnginesVerify(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure3(4)
	tp, rep, err := ComputeThroughputHedgedOpts(context.Background(), g, HedgeOptions{CrossCheck: true})
	if err != nil {
		t.Fatalf("cross-check: %v\n%s", err, rep)
	}
	if rep.Winner != Matrix {
		t.Errorf("cross-check winner = %v, want the first engine in race order", rep.Winner)
	}
	if len(rep.Certificates) != 3 {
		t.Fatalf("got %d certificates, want one per engine:\n%s", len(rep.Certificates), rep)
	}
	for m, cert := range rep.Certificates {
		if cert.Unbounded || !cert.Period.Equal(tp.Period) {
			t.Errorf("%v certificate claims %v, result is %v", m, cert.Period, tp.Period)
		}
		if err := cert.Check(context.Background(), g); err != nil {
			t.Errorf("%v certificate does not re-verify: %v", m, err)
		}
	}
	s := rep.String()
	if !strings.Contains(s, "answered") || !strings.Contains(s, "cross-checked") {
		t.Errorf("report rendering misses the cross-check lines:\n%s", s)
	}
}

// A wrong answer injected through the HSDF anchor's documented trust
// gap (its edge delays are not re-derivable from the original graph)
// must not win silently: both engines verify, their claims differ, and
// the race returns a structured disagreement carrying both
// certificates.
func TestHedgedSurfacesVerifiedDisagreement(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure3(4)
	testTamperHSDF = func(h *sdf.Graph) *sdf.Graph {
		tampered := h.Clone()
		for i := 0; i < tampered.NumChannels(); i++ {
			id := sdf.ChannelID(i)
			if err := tampered.SetInitial(id, tampered.Channel(id).Initial+1); err != nil {
				t.Fatal(err)
			}
		}
		return tampered
	}
	defer func() { testTamperHSDF = nil }()

	_, rep, err := ComputeThroughputHedgedOpts(context.Background(), g,
		HedgeOptions{Engines: []Method{Matrix, HSDF}, CrossCheck: true})
	if !errors.Is(err, ErrEngineDisagreement) {
		t.Fatalf("err = %v, want ErrEngineDisagreement\n%s", err, rep)
	}
	var de *DisagreementError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T, want *DisagreementError", err)
	}
	if de.MethodA != Matrix || de.MethodB != HSDF {
		t.Errorf("disagreement between %v and %v, want matrix and hsdf", de.MethodA, de.MethodB)
	}
	if de.ResultA.Period.Equal(de.ResultB.Period) {
		t.Errorf("disagreement carries equal periods %v", de.ResultA.Period)
	}
	if de.CertA == nil || de.CertB == nil {
		t.Fatal("disagreement does not carry both certificates")
	}
	// Both certificates individually verify — that is exactly what makes
	// the disagreement worth surfacing instead of silently picking one.
	if err := de.CertA.Check(context.Background(), g); err != nil {
		t.Errorf("matrix certificate does not verify: %v", err)
	}
	if err := de.CertB.Check(context.Background(), g); err != nil {
		t.Errorf("tampered hsdf certificate does not verify (the trust gap closed?): %v", err)
	}
}

func TestHedgedAllEnginesFail(t *testing.T) {
	defer noLeaks(t)
	// Inconsistent rates: no repetition vector, every engine fails.
	g := sdf.NewGraph("inconsistent")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 2, 3, 0)
	g.MustAddChannel(b, a, 1, 1, 1)
	_, rep, err := ComputeThroughputHedged(context.Background(), g)
	if err == nil {
		t.Fatal("inconsistent graph produced a hedged answer")
	}
	if rep.Answered {
		t.Error("report claims an answer on total failure")
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("report has %d attempts, want 3", len(rep.Attempts))
	}
	for _, at := range rep.Attempts {
		if at.Skipped || at.Err == nil {
			t.Errorf("%v: attempt on total failure should record a failure, got %+v", at.Method, at)
		}
	}
}

// TestHedgedGateShedsTrippedEngine is the breaker-interaction contract
// of the serving layer: an engine behind an open circuit breaker must
// be shed before the race starts — no goroutine, no meter, no budget
// consumption — and the report must say so. The armed injector proves
// the "no budget consumed" half: had the statespace engine run at all,
// its very first checkpoint or precheck would have struck the injector.
func TestHedgedGateShedsTrippedEngine(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure2()
	b := guard.Unlimited()
	b.CheckEvery = 1
	inj := guard.NewInjector(
		guard.Fault{Engine: "statespace", Point: guard.PointPrecheck, Mode: guard.ModePanic, Times: -1},
		guard.Fault{Engine: "statespace", Point: guard.PointCheckpoint, Mode: guard.ModePanic, Times: -1},
	)
	ctx := guard.WithInjector(guard.WithBudget(context.Background(), b), inj)

	breaker := guard.NewBreaker(guard.BreakerOptions{Threshold: 1})
	breaker.Failure() // tripped before the race
	gate := func(m Method) error {
		if m == StateSpace {
			return breaker.Allow()
		}
		return nil
	}
	tp, rep, err := ComputeThroughputHedgedOpts(ctx, g, HedgeOptions{CrossCheck: true, Gate: gate})
	if err != nil {
		t.Fatalf("hedged with tripped statespace: %v\n%s", err, rep)
	}
	if tp.Unbounded {
		t.Error("result unbounded")
	}
	if rep.Winner != Matrix {
		t.Errorf("winner = %v, want matrix", rep.Winner)
	}
	if inj.Fired() != 0 {
		t.Errorf("gated engine consumed budget: injector fired %d times, want 0", inj.Fired())
	}
	var ss *EngineAttempt
	for i := range rep.Attempts {
		if rep.Attempts[i].Method == StateSpace {
			ss = &rep.Attempts[i]
		}
	}
	if ss == nil {
		t.Fatalf("no statespace attempt in the report:\n%s", rep)
	}
	if !ss.Skipped {
		t.Fatalf("tripped engine not recorded as skipped: %+v", ss)
	}
	if !errors.Is(ss.Err, guard.ErrBreakerOpen) {
		t.Errorf("skipped attempt carries %v, want ErrBreakerOpen", ss.Err)
	}
	if !strings.Contains(rep.String(), "gated") {
		t.Errorf("report does not say the engine was gated:\n%s", rep)
	}
	if _, ok := rep.Certificates[StateSpace]; ok {
		t.Error("gated engine produced a certificate")
	}
}

// When the gate sheds every engine the race must fail with the gate
// errors joined, not hang or invent a winner.
func TestHedgedAllEnginesGated(t *testing.T) {
	defer noLeaks(t)
	gate := func(Method) error { return guard.ErrBreakerOpen }
	_, rep, err := ComputeThroughputHedgedOpts(context.Background(), gen.Figure2(), HedgeOptions{Gate: gate})
	if err == nil {
		t.Fatal("fully gated race produced an answer")
	}
	if !errors.Is(err, guard.ErrBreakerOpen) {
		t.Errorf("err = %v, want to wrap ErrBreakerOpen", err)
	}
	if rep.Answered || len(rep.Attempts) != 3 {
		t.Fatalf("report = answered=%v attempts=%d, want 3 skipped attempts", rep.Answered, len(rep.Attempts))
	}
	for _, at := range rep.Attempts {
		if !at.Skipped {
			t.Errorf("%v not skipped: %+v", at.Method, at)
		}
	}
}

// A deterministically injected budget refusal makes the HSDF racer lose
// while the others proceed: degradation under fault injection, with no
// timing dependence because cross-check mode waits for every racer.
func TestHedgedInjectedRefusalLosesRace(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure2()
	b := guard.Unlimited()
	b.CheckEvery = 1
	inj := guard.NewInjector(
		guard.Fault{Engine: "traditional", Point: guard.PointPrecheck, Mode: guard.ModeRefuse},
	)
	ctx := guard.WithInjector(guard.WithBudget(context.Background(), b), inj)
	tp, rep, err := ComputeThroughputHedgedOpts(ctx, g, HedgeOptions{CrossCheck: true})
	if err != nil {
		t.Fatalf("hedged with injected hsdf refusal: %v\n%s", err, rep)
	}
	if rep.Winner != Matrix {
		t.Errorf("winner = %v, want matrix", rep.Winner)
	}
	if tp.Unbounded {
		t.Error("result unbounded")
	}
	if inj.Fired() != 1 {
		t.Errorf("injector fired %d times, want 1", inj.Fired())
	}
	var hsdfAttempt *EngineAttempt
	for i := range rep.Attempts {
		if rep.Attempts[i].Method == HSDF {
			hsdfAttempt = &rep.Attempts[i]
		}
	}
	if hsdfAttempt == nil || hsdfAttempt.Err == nil {
		t.Fatalf("hsdf attempt not recorded as failed:\n%s", rep)
	}
	if !errors.Is(hsdfAttempt.Err, guard.ErrBudgetExceeded) {
		t.Errorf("hsdf failure = %v, want the injected ErrBudgetExceeded", hsdfAttempt.Err)
	}
}

// Engines reached after the context is done are not started: they are
// recorded as skipped with a nil error (a breaker forgives them), and
// the policy's error carries the context's cause.
func TestHedgedContextDoneSkipsEngines(t *testing.T) {
	defer noLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := ComputeThroughputHedged(ctx, gen.Figure2())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Answered || len(rep.Attempts) != 3 {
		t.Fatalf("report = answered=%v attempts=%d, want 3 skipped attempts", rep.Answered, len(rep.Attempts))
	}
	for _, at := range rep.Attempts {
		if !at.Skipped || at.Err != nil || at.Wall != 0 {
			t.Errorf("%v: %+v, want skipped before it started", at.Method, at)
		}
	}
}
