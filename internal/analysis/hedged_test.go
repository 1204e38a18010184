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
	cert := rep.Certificate
	if cert == nil {
		t.Fatalf("winner %v has no certificate", rep.Winner)
	}
	if err := cert.Check(context.Background(), g); err != nil {
		t.Errorf("winner's certificate does not re-verify: %v", err)
	}
}

// TestHedgedEveryEngineVerifies reaches each engine through the policy
// by gating the other two: each answers alone, with a certificate
// anchored in a schedule that re-verifies, and all three agree.
func TestHedgedEveryEngineVerifies(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure3(4)
	var periods []string
	for _, m := range DefaultEngines() {
		only := func(e Method) error {
			if e != m {
				return guard.ErrBreakerOpen
			}
			return nil
		}
		tp, rep, err := ComputeThroughputHedgedOpts(context.Background(), g, HedgeOptions{Gate: only})
		if err != nil {
			t.Fatalf("%v alone: %v\n%s", m, err, rep)
		}
		if rep.Winner != m {
			t.Errorf("winner = %v, want the one admitted engine %v", rep.Winner, m)
		}
		cert := rep.Certificate
		if cert == nil || cert.Schedule == nil || cert.Unbounded || !cert.Period.Equal(tp.Period) {
			t.Fatalf("%v: certificate %v does not claim the result %v", m, cert, tp.Period)
		}
		if err := cert.Check(context.Background(), g); err != nil {
			t.Errorf("%v certificate does not re-verify: %v", m, err)
		}
		if s := rep.String(); strings.Count(s, "gated") != 2 || !strings.Contains(s, "answered") {
			t.Errorf("report does not read two gated engines and one answer:\n%s", s)
		}
		periods = append(periods, tp.Period.String())
	}
	if periods[0] != periods[1] || periods[0] != periods[2] {
		t.Errorf("engines disagree: %v", periods)
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
// consumption — and the report must say so. The matrix engine fails on
// an injected error, so the policy reaches the statespace engine's
// turn; the armed injector proves the "no budget consumed" half: had
// the statespace engine run at all, its very first checkpoint or
// precheck would have struck the injector.
func TestHedgedGateShedsTrippedEngine(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure2()
	b := guard.Unlimited()
	b.CheckEvery = 1
	inj := guard.NewInjector(
		guard.Fault{Engine: "matrix", Point: guard.PointCheckpoint, Mode: guard.ModeError},
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
	tp, rep, err := ComputeThroughputHedgedOpts(ctx, g, HedgeOptions{Gate: gate})
	if err != nil {
		t.Fatalf("hedged with tripped statespace: %v\n%s", err, rep)
	}
	if tp.Unbounded {
		t.Error("result unbounded")
	}
	if rep.Winner != HSDF {
		t.Errorf("winner = %v, want hsdf after the matrix failure and the gated statespace", rep.Winner)
	}
	if inj.Fired() != 1 {
		t.Errorf("injector fired %d times, want once for the matrix engine: the gated engine consumed budget", inj.Fired())
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
	if rep.Certificate == nil || rep.Certificate.Check(ctx, g) != nil {
		t.Error("the winner's certificate does not re-verify")
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

// A deterministically injected budget refusal makes the HSDF engine
// lose: with the other two engines gated it is the one engine that
// runs, and the refusal lands in its attempt and in the policy's error.
func TestHedgedInjectedRefusalLosesRace(t *testing.T) {
	defer noLeaks(t)
	g := gen.Figure2()
	b := guard.Unlimited()
	b.CheckEvery = 1
	inj := guard.NewInjector(
		guard.Fault{Engine: "traditional", Point: guard.PointPrecheck, Mode: guard.ModeRefuse},
	)
	ctx := guard.WithInjector(guard.WithBudget(context.Background(), b), inj)
	onlyHSDF := func(m Method) error {
		if m != HSDF {
			return guard.ErrBreakerOpen
		}
		return nil
	}
	_, rep, err := ComputeThroughputHedgedOpts(ctx, g, HedgeOptions{Gate: onlyHSDF})
	if !errors.Is(err, guard.ErrBudgetExceeded) || rep.Answered {
		t.Fatalf("hedged with injected hsdf refusal: %v, want the refusal\n%s", err, rep)
	}
	if inj.Fired() != 1 {
		t.Errorf("injector fired %d times, want 1", inj.Fired())
	}
	hsdfAttempt := rep.Attempts[2]
	if hsdfAttempt.Method != HSDF || hsdfAttempt.Skipped || !errors.Is(hsdfAttempt.Err, guard.ErrBudgetExceeded) {
		t.Errorf("hsdf attempt = %+v, want the injected ErrBudgetExceeded", hsdfAttempt)
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

// The renderer covers every attempt shape: a failure, the winner and a
// skip, and cuts a multi-line reason (an isolated panic's stack trace)
// at its first newline.
func TestResilientReportStringBranches(t *testing.T) {
	rep := &HedgeReport{
		Attempts: []EngineAttempt{
			{Method: Matrix, Reason: "boom\ngoroutine 1 [running]:", Err: errors.New("boom")},
			{Method: StateSpace},
			{Method: HSDF, Skipped: true, Reason: "gated: open"},
		},
		Winner:   StateSpace,
		Answered: true,
	}
	got := rep.String()
	want := "matrix      failed: boom\n" +
		"statespace  answered\n" +
		"hsdf        skipped: gated: open\n"
	if got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}
	if lines := rep.Lines(); strings.Join(lines, "\n")+"\n" != want {
		t.Errorf("Lines() = %q, want the lines of String()", lines)
	}
	if s := (&HedgeReport{}).String(); s != "" {
		t.Errorf("empty report renders %q", s)
	}
}

// With the first two engines disabled by injected failures, the HSDF
// conversion's size precheck refuses a graph whose iteration length
// exceeds the actor budget, so the policy fails with three attempts.
func TestResilientPrecheckSizeSkip(t *testing.T) {
	g := gen.Figure2()
	b := guard.Unlimited()
	b.CheckEvery = 1
	b.MaxHSDFActors = 1
	ctx := guard.WithBudget(context.Background(), b)
	ctx = guard.WithInjector(ctx, guard.NewInjector(
		guard.Fault{Engine: "matrix", Point: guard.PointCheckpoint, Mode: guard.ModeError},
		guard.Fault{Engine: "statespace", Point: guard.PointCheckpoint, Mode: guard.ModeError},
	))
	_, rep, err := ComputeThroughputHedged(ctx, g)
	if err == nil {
		t.Fatal("policy answered although every engine was disabled")
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("report has %d attempts, want 3:\n%s", len(rep.Attempts), rep)
	}
	for _, at := range rep.Attempts[:2] {
		if at.Skipped || !errors.Is(at.Err, guard.ErrEngineFailed) {
			t.Errorf("%v: want an injected engine failure, got %+v", at.Method, at)
		}
	}
	hsdf := rep.Attempts[2]
	if hsdf.Skipped || !errors.Is(hsdf.Err, guard.ErrBudgetExceeded) || !strings.Contains(hsdf.Reason, "HSDF actors exceed the limit of 1") {
		t.Errorf("hsdf attempt not refused by the size precheck: %+v", hsdf)
	}
}

func TestResilientSkipsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := ComputeThroughputHedged(ctx, gen.Figure2())
	if err == nil {
		t.Fatal("cancelled context still produced an answer")
	}
	if rep.Answered || len(rep.Attempts) != 3 {
		t.Fatalf("unexpected report shape:\n%s", rep)
	}
	for _, at := range rep.Attempts {
		if !at.Skipped || !strings.Contains(at.Reason, "context done") {
			t.Errorf("%v: want a context-done skip, got %+v", at.Method, at)
		}
	}
}

func TestResilientAllEnginesFailedReport(t *testing.T) {
	g := sdf.NewGraph("inconsistent")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 2, 3, 0)
	g.MustAddChannel(b, a, 1, 1, 1)
	_, rep, err := ComputeThroughputHedged(context.Background(), g)
	if err == nil || rep.Answered {
		t.Fatal("inconsistent graph produced an answer")
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("report has %d attempts, want 3", len(rep.Attempts))
	}
	// Every engine fails on the balance equations.
	s := rep.String()
	if strings.Count(s, "failed:") != 3 || strings.Count(s, "violates balance") != 3 {
		t.Errorf("report should render three balance-equation failures:\n%s", s)
	}
}

// A panic injected into the matrix engine is contained by the panic
// isolation layer and the policy degrades to the next engine — the
// documented behaviour, provoked deterministically.
func TestResilientDegradesOnInjectedPanic(t *testing.T) {
	g := gen.Figure2()
	b := guard.Unlimited()
	b.CheckEvery = 1
	ctx := guard.WithBudget(context.Background(), b)
	ctx = guard.WithInjector(ctx, guard.NewInjector(
		guard.Fault{Engine: "matrix", Point: guard.PointCheckpoint, Mode: guard.ModePanic},
	))
	tp, rep, err := ComputeThroughputHedged(ctx, g)
	if err != nil {
		t.Fatalf("policy did not degrade past the injected panic: %v\n%s", err, rep)
	}
	if rep.Winner != StateSpace {
		t.Errorf("winner = %v, want statespace after the matrix engine panics", rep.Winner)
	}
	if tp.Unbounded {
		t.Error("result unbounded")
	}
	if !errors.Is(rep.Attempts[0].Err, guard.ErrEngineFailed) {
		t.Errorf("matrix attempt = %+v, want a contained panic as ErrEngineFailed", rep.Attempts[0])
	}
}
