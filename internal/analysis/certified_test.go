package analysis

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/rat"
	"repro/internal/sdf"
)

func TestCertifiedEnginesAgreeAndVerify(t *testing.T) {
	g := gen.Figure2()
	ctx := context.Background()
	var periods []string
	for _, m := range []Method{Matrix, StateSpace, HSDF} {
		tp, cert, err := ComputeThroughputCertified(ctx, g, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if cert == nil {
			t.Fatalf("%v: nil certificate", m)
		}
		if tp.Unbounded {
			t.Fatalf("%v: figure 2 reported unbounded", m)
		}
		if !tp.Period.Equal(cert.Period) || cert.Unbounded {
			t.Errorf("%v: certificate claims %v (unbounded=%v), result is %v",
				m, cert.Period, cert.Unbounded, tp.Period)
		}
		// Every engine's certificate is anchored in a schedule of g.
		if cert.Schedule == nil {
			t.Errorf("%v: certificate carries no schedule", m)
		}
		// The certificate re-verifies from scratch.
		if err := cert.Check(ctx, g); err != nil {
			t.Errorf("%v: certificate does not re-verify: %v", m, err)
		}
		periods = append(periods, tp.Period.String())
	}
	if periods[0] != periods[1] || periods[0] != periods[2] {
		t.Errorf("certified engines disagree: %v", periods)
	}
}

func TestCertifiedUnknownMethod(t *testing.T) {
	g := gen.Figure2()
	if _, _, err := ComputeThroughputCertified(context.Background(), g, Method(42)); err == nil {
		t.Error("unknown method accepted")
	}
}

// An injected panic inside the verification layer itself must be
// isolated by the engine wrapper: the process survives and the caller
// sees a structured engine failure.
func TestCertifiedInjectedPanicIsolated(t *testing.T) {
	g := gen.Figure2()
	b := guard.Unlimited()
	b.CheckEvery = 1
	ctx := guard.WithBudget(context.Background(), b)
	ctx = guard.WithInjector(ctx, guard.NewInjector(
		guard.Fault{Engine: "verify", Point: guard.PointCheckpoint, Mode: guard.ModePanic},
	))
	_, _, err := ComputeThroughputCertified(ctx, g, Matrix)
	if !errors.Is(err, guard.ErrEngineFailed) {
		t.Fatalf("err = %v, want injected panic surfaced as ErrEngineFailed", err)
	}
}

// tokenHeavy is a 2:1 pair with n initial tokens on its feedback
// channel and a one-token self-loop on B: an iteration of three firings
// and a period of 10, whatever n is.
func tokenHeavy(n int) *sdf.Graph {
	g := sdf.NewGraph("token-heavy")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 2, n)
	g.MustAddChannel(b, b, 1, 1, 1)
	return g
}

// TestCertifiedHSDFChargesTokens pins the HSDF engine's token limit.
// Its certificate holds one potential per initial token, so the token
// count is charged against MaxStates before anything is sized by it:
// under guard.Default a graph of 10^8 tokens is refused at once with
// ErrBudgetExceeded, which the uncertified engine, whose conversion
// depends on Σq only, still answers, and a graph within MaxStates is
// certified.
func TestCertifiedHSDFChargesTokens(t *testing.T) {
	ctx := guard.WithBudget(context.Background(), guard.Default())
	g := tokenHeavy(100_000_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ComputeThroughputCertified(ctx, g, HSDF)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("certified hsdf on 10^8 tokens: %v, want ErrBudgetExceeded", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing 10^8 tokens allocated %d bytes", grew)
	}
	tp, err := ComputeThroughputDirectCtx(ctx, g, HSDF)
	if err != nil || tp.Unbounded || !tp.Period.Equal(rat.FromInt(10)) {
		t.Errorf("uncertified hsdf on 10^8 tokens = %v (unbounded %v), %v; want period 10", tp.Period, tp.Unbounded, err)
	}

	b := guard.Default()
	b.MaxStates = 4096
	ctx = guard.WithBudget(context.Background(), b)
	tp, cert, err := ComputeThroughputCertified(ctx, tokenHeavy(4000), HSDF)
	if err != nil || !tp.Period.Equal(rat.FromInt(10)) || len(cert.Potentials) != 4001 {
		t.Errorf("certified hsdf on 4,000 tokens under MaxStates 4096 = %v, %v", tp.Period, err)
	}
	if _, _, err := ComputeThroughputCertified(ctx, tokenHeavy(5000), HSDF); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Errorf("certified hsdf on 5,000 tokens under MaxStates 4096: %v, want ErrBudgetExceeded", err)
	}
}
