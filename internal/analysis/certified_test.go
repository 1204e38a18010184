package analysis

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/guard"
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
		// Anchor shape: matrix-family engines carry the matrix anchor,
		// the classical engine the converted graph.
		if m == HSDF {
			if cert.HSDF == nil || cert.Schedule != nil {
				t.Errorf("%v: wrong anchor", m)
			}
		} else if cert.Schedule == nil || cert.HSDF != nil {
			t.Errorf("%v: wrong anchor", m)
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
