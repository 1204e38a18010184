package sdfreduce

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/transform"
)

// explosiveGraph returns a consistent, live chain A -> B -> C with
// per-link rate ratio r and unit-time self-loops, so its repetition
// vector is [1, r, r²] and the iteration length 1 + r + r² explodes
// while the symbolic engines only ever see three initial tokens.
func explosiveGraph(t testing.TB, r int) *Graph {
	t.Helper()
	g := NewGraph("boom")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	g.MustAddChannel(a, a, 1, 1, 1)
	g.MustAddChannel(b, b, 1, 1, 1)
	g.MustAddChannel(c, c, 1, 1, 1)
	g.MustAddChannel(a, b, r, 1, 0)
	g.MustAddChannel(b, c, r, 1, 0)
	return g
}

// hugeIterGraph is a five-actor chain with ratio 64 per link: iteration
// length ~17M firings, far beyond any sub-second deadline.
func hugeIterGraph(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph("huge")
	prev := g.MustAddActor("A0", 1)
	g.MustAddChannel(prev, prev, 1, 1, 1)
	for i := 1; i < 5; i++ {
		next := g.MustAddActor(string(rune('A'+i))+"0", 1)
		g.MustAddChannel(next, next, 1, 1, 1)
		g.MustAddChannel(prev, next, 64, 1, 0)
		prev = next
	}
	return g
}

// TestExplosiveGraphFastFailure is the acceptance scenario of the
// resilience runtime: an iteration length above 10^6 makes the
// traditional conversion refuse instantly under the default budget,
// while the hedged policy still answers, verified, through the matrix
// engine.
func TestExplosiveGraphFastFailure(t *testing.T) {
	g := explosiveGraph(t, 1100) // Σq = 1 + 1100 + 1_210_000 > 10^6

	start := time.Now()
	_, _, err := ConvertTraditional(g)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ConvertTraditional = %v, want ErrBudgetExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("budget refusal took %v, want < 1s", d)
	}

	tp, rep, err := ComputeThroughputHedged(context.Background(), g)
	if err != nil {
		t.Fatalf("hedged: %v\n%s", err, rep)
	}
	if rep.Winner != MethodMatrix {
		t.Errorf("winner = %v, want matrix\n%s", rep.Winner, rep)
	}
	// Period = max_a q[a]·exec[a] = 1100² for actor C.
	want := int64(1100 * 1100)
	if tp.Period.Num() != want || tp.Period.Den() != 1 {
		t.Errorf("hedged period = %v, want %d", tp.Period, want)
	}
	if err := CheckCertificate(context.Background(), g, rep.Certificate); err != nil {
		t.Errorf("matrix certificate does not re-check: %v", err)
	}
	// The direct matrix engine agrees.
	mtp, err := ComputeThroughput(g, MethodMatrix)
	if err != nil {
		t.Fatal(err)
	}
	if !mtp.Period.Equal(tp.Period) {
		t.Errorf("hedged %v != matrix %v", tp.Period, mtp.Period)
	}
	// The HSDF engine never ran: the matrix engine answered first.
	var hsdf *EngineAttempt
	for i := range rep.Attempts {
		if rep.Attempts[i].Method == MethodHSDF {
			hsdf = &rep.Attempts[i]
		}
	}
	if hsdf == nil || !hsdf.Skipped {
		t.Errorf("HSDF engine not skipped:\n%s", rep)
	}
}

// TestDeadlineRespected proves the Ctx variants honour short deadlines
// on graphs whose iteration would otherwise run for a long time
// (satellite c): both return within a second, wrapping
// context.DeadlineExceeded so errors.Is works across the stack.
func TestDeadlineRespected(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(ctx context.Context, g *Graph) error
	}{
		{"ConvertTraditionalCtx", func(ctx context.Context, g *Graph) error {
			_, _, err := ConvertTraditionalCtx(ctx, g)
			return err
		}},
		{"ComputeThroughputCtx/statespace", func(ctx context.Context, g *Graph) error {
			_, err := ComputeThroughputCtx(ctx, g, MethodStateSpace)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := hugeIterGraph(t)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			// Lift the work caps so only the deadline can stop the run.
			ctx = WithBudget(ctx, UnlimitedBudget())
			start := time.Now()
			err := tc.call(ctx, g)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("err = %v, want ErrCanceled in the chain", err)
			}
			if elapsed > time.Second {
				t.Errorf("returned after %v, want < 1s", elapsed)
			}
		})
	}
}

// TestOverflowRegressions drives sim and transform with near-overflow
// quantities (satellite b): arithmetic that used to wrap silently now
// reports structured errors.
func TestOverflowRegressions(t *testing.T) {
	// Valid repetition vector whose sum 1 + 2^62 + 2^62 overflows int64.
	sumOverflow := func() *Graph {
		g := NewGraph("sum-overflow")
		z := g.MustAddActor("Z", 1)
		a := g.MustAddActor("A", 1)
		b := g.MustAddActor("B", 1)
		g.MustAddChannel(z, a, 1<<62, 1, 0)
		g.MustAddChannel(a, b, 1, 1, 0)
		return g
	}

	t.Run("facade/iteration-length-overflow", func(t *testing.T) {
		// The facade's lint precheck already rejects the graph with a
		// structured diagnostic before the transform runs.
		ctx := WithBudget(context.Background(), UnlimitedBudget())
		_, _, err := ConvertTraditionalCtx(ctx, sumOverflow())
		var pre *PrecheckError
		if !errors.As(err, &pre) {
			t.Fatalf("err = %v, want *PrecheckError", err)
		}
	})

	t.Run("transform/iteration-length-overflow", func(t *testing.T) {
		// Callers bypassing the facade still hit the transform's own
		// checked estimate.
		ctx := guard.WithBudget(context.Background(), guard.Unlimited())
		_, _, err := transform.TraditionalCtx(ctx, sumOverflow())
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded (overflowed estimate)", err)
		}
	})

	t.Run("sim/firing-count-overflow", func(t *testing.T) {
		ctx := WithBudget(context.Background(), UnlimitedBudget())
		_, err := SimulateCtx(ctx, sumOverflow(), 1)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded (overflowed estimate)", err)
		}
	})

	t.Run("sim/event-time-overflow", func(t *testing.T) {
		// One self-looped actor with a near-max execution time: the
		// second firing's end time 2·2^62 exceeds int64.
		g := NewGraph("time-overflow")
		a := g.MustAddActor("A", 1<<62)
		g.MustAddChannel(a, a, 1, 1, 1)
		if _, err := Simulate(g, 4); err == nil {
			t.Fatal("simulation of overflowing event times succeeded")
		}
	})

	t.Run("sim/near-overflow-still-works", func(t *testing.T) {
		// The checked path must not reject values that merely come close.
		g := NewGraph("near")
		a := g.MustAddActor("A", 1<<61)
		g.MustAddChannel(a, a, 1, 1, 1)
		tr, err := Simulate(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Horizon != 1<<61 {
			t.Errorf("horizon = %d, want %d", tr.Horizon, int64(1)<<61)
		}
	})
}

// TestResilientReportOnTotalFailure checks the hedged policy reports
// every attempt even when no engine can answer.
func TestResilientReportOnTotalFailure(t *testing.T) {
	g := hugeIterGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ctx = WithBudget(ctx, UnlimitedBudget())
	_, rep, err := ComputeThroughputHedged(ctx, g)
	if err == nil {
		t.Fatal("hedged analysis under an expired deadline succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if rep == nil || len(rep.Attempts) != 3 {
		t.Fatalf("report = %+v, want 3 attempts", rep)
	}
	if rep.Answered {
		t.Errorf("report claims an answer:\n%s", rep)
	}
}
