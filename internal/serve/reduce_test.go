package serve

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/guard"
	"repro/internal/passes"
	"repro/internal/sdf"
)

// reducibleGraph builds a graph the exact rules shrink: a fusible link,
// a gcd-divisible channel, a redundant parallel channel and a dead tail.
func reducibleGraph(t *testing.T) *sdf.Graph {
	t.Helper()
	g := sdf.NewGraph("reducible")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 7)
	g.MustAddChannel(a, b, 2, 2, 0)
	g.MustAddChannel(b, c, 2, 4, 0)
	g.MustAddChannel(c, a, 2, 1, 2)
	g.MustAddChannel(c, a, 2, 1, 8)
	g.MustAddChannel(c, d, 1, 1, 0)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

// TestAnalyzeReducedPath sends a reducible graph through the full
// serving path and checks the answer was computed on the reduced graph
// (the payload carries the fixpoint trace), lifted, verified, and equal
// to the direct engine answer on the original.
func TestAnalyzeReducedPath(t *testing.T) {
	defer noLeaks(t)
	g := reducibleGraph(t)
	want, err := analysis.ComputeThroughputDirectCtx(
		guard.WithBudget(context.Background(), guard.Unlimited()), g, analysis.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{})
	defer s.Close()
	// Every engine's answer on the reduced graph is lifted and re-checked
	// through the reduction certificate.
	for _, method := range []string{"hedged", "matrix", "statespace", "hsdf"} {
		res, err := s.Analyze(context.Background(), &Request{Graph: g, Method: method})
		if err != nil {
			t.Fatalf("%s: Analyze: %v", method, err)
		}
		if method != "hedged" && res.Engine != method {
			t.Errorf("%s: answered by the %s engine", method, res.Engine)
		}
		if len(res.Reduction) == 0 {
			t.Fatalf("%s: payload carries no reduction trace: %+v", method, res)
		}
		if res.Unbounded || res.Period != want.Period.String() {
			t.Errorf("%s: period = %q unbounded=%v, want %q", method, res.Period, res.Unbounded, want.Period)
		}
		if !res.Verified || res.Certificate == "" {
			t.Errorf("%s: lifted answer not verified: %+v", method, res)
		}
		if res.Graph != "reducible" {
			t.Errorf("%s: payload names graph %q, want the original", method, res.Graph)
		}
	}
}

// TestAnalyzeReducedCacheSharing: two distinct originals that reduce to
// the same graph share one cache entry, and each gets its own lift.
func TestAnalyzeReducedCacheSharing(t *testing.T) {
	defer noLeaks(t)
	s := New(Options{})
	defer s.Close()
	first, err := s.Analyze(context.Background(), &Request{Graph: reducibleGraph(t), Method: "matrix"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first answer claims cached")
	}
	second, err := s.Analyze(context.Background(), &Request{Graph: reducibleGraph(t), Method: "matrix"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("identical reducible repeat not served from the cache")
	}
	if second.Period != first.Period || len(second.Reduction) == 0 {
		t.Errorf("cached lift mismatch: %+v vs %+v", second, first)
	}
}

// TestEstimateCostMatchesFacts pins the delegation: the server's
// admission price is the fact layer's cost, computed on whatever graph
// the server dispatches.
func TestEstimateCostMatchesFacts(t *testing.T) {
	g := reducibleGraph(t)
	if got, want := EstimateCost(g), passes.NewFacts(g).Cost(); got != want {
		t.Fatalf("EstimateCost = %d, facts cost = %d", got, want)
	}
}
