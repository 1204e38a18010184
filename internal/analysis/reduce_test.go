package analysis

import (
	"context"
	"testing"

	"repro/internal/guard"
	"repro/internal/sdf"
)

// reducibleGraph builds a graph every exact rule bites on: a fusible
// A→B link, a rate-gcd channel, a redundant parallel channel pair and a
// dead tail actor hanging off the token-bearing cycle.
func reducibleGraph(t *testing.T) *sdf.Graph {
	t.Helper()
	g := sdf.NewGraph("reducible")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 7)
	g.MustAddChannel(a, b, 2, 2, 0) // fusible: same rate, no tokens
	g.MustAddChannel(b, c, 2, 4, 0) // gcd 2
	g.MustAddChannel(c, a, 2, 1, 2)
	g.MustAddChannel(c, a, 2, 1, 8) // redundant: dominated by the 2-token twin
	g.MustAddChannel(c, d, 1, 1, 0) // dead tail
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func unlimited() context.Context {
	return guard.WithBudget(context.Background(), guard.Unlimited())
}

// TestReducedMatchesDirect drives every engine through the reducing
// front door and the direct back door and demands identical answers in
// exact rational arithmetic.
func TestReducedMatchesDirect(t *testing.T) {
	g := reducibleGraph(t)
	for _, m := range []Method{Matrix, StateSpace, HSDF} {
		direct, err := ComputeThroughputDirectCtx(unlimited(), g, m)
		if err != nil {
			t.Fatalf("%v direct: %v", m, err)
		}
		reduced, err := ComputeThroughputCtx(unlimited(), g, m)
		if err != nil {
			t.Fatalf("%v reduced: %v", m, err)
		}
		if direct.Unbounded != reduced.Unbounded {
			t.Fatalf("%v: unbounded mismatch direct=%v reduced=%v", m, direct.Unbounded, reduced.Unbounded)
		}
		if !direct.Unbounded && !direct.Period.Equal(reduced.Period) {
			t.Fatalf("%v: period mismatch direct=%v reduced=%v", m, direct.Period, reduced.Period)
		}
		if len(reduced.Repetition) != g.NumActors() {
			t.Fatalf("%v: lifted repetition has %d entries, want %d", m, len(reduced.Repetition), g.NumActors())
		}
		for a := range direct.Repetition {
			if direct.Repetition[a] != reduced.Repetition[a] {
				t.Fatalf("%v: repetition[%d] = %d, want %d", m, a, reduced.Repetition[a], direct.Repetition[a])
			}
		}
	}
}

// TestReducedUnboundedGraph checks the reducer path on a cycle-free
// graph: the dead-actor rule collapses it and Unbounded must lift
// through unchanged.
func TestReducedUnboundedGraph(t *testing.T) {
	g := sdf.NewGraph("pipe")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 4)
	g.MustAddChannel(a, b, 2, 1, 0)
	tp, err := ComputeThroughputCtx(unlimited(), g, Matrix)
	if err != nil {
		t.Fatalf("ComputeThroughputCtx: %v", err)
	}
	if !tp.Unbounded {
		t.Fatalf("want unbounded, got period %v", tp.Period)
	}
}
