package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/sdf"
)

// tokenHeavyGraph has more initial tokens than the default budget's
// MaxTokens, so the symbolic engines refuse it, but an iteration of
// only four firings, so the HSDF conversion is tiny.
func tokenHeavyGraph() *sdf.Graph {
	g := sdf.NewGraph("token-heavy")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 2, 3001)
	g.MustAddChannel(b, b, 1, 1, 1)
	return g
}

// TestHedgedFallsBackOnBudgetRefusal: the policy runs the next engine
// when the previous one is refused by its budget, and the answer is
// still exact and verified.
func TestHedgedFallsBackOnBudgetRefusal(t *testing.T) {
	defer noLeaks(t)
	g := tokenHeavyGraph()
	if n := int64(g.TotalInitialTokens()); n <= guard.Default().MaxTokens {
		t.Fatalf("graph has %d tokens, want more than MaxTokens %d", n, guard.Default().MaxTokens)
	}
	s := New(Options{})
	defer s.Close()
	res, err := s.Analyze(context.Background(), &Request{Graph: g, Method: "hedged"})
	if err != nil {
		t.Fatalf("hedged on a token-heavy graph: %v", err)
	}
	if res.Engine != "hsdf" || !res.Verified || res.Period == "" {
		t.Fatalf("answer = engine %q verified %v period %q, want a verified hsdf period", res.Engine, res.Verified, res.Period)
	}
	report := strings.Join(res.Report, "\n")
	matrix := strings.Index(report, "matrix      failed:")
	hsdf := strings.Index(report, "hsdf        answered")
	if matrix < 0 || hsdf < matrix || !strings.Contains(report, "budget") {
		t.Errorf("report does not read matrix failed on budget, then hsdf answered:\n%s", report)
	}
	for _, b := range s.Health().Engines {
		if b.State != "closed" {
			t.Errorf("budget refusals moved the %s breaker to %s", b.Engine, b.State)
		}
	}
}

// TestHedgedMatrixBreakerOpen: hedged requests whose matrix engine
// panics are answered by the next engine, the panics trip the matrix
// breaker, and the next hedged request finds matrix gated and is still
// answered exactly.
func TestHedgedMatrixBreakerOpen(t *testing.T) {
	defer noLeaks(t)
	clk := &fakeClock{now: time.Unix(0, 0)}
	s := New(Options{
		AllowInjection: true,
		Breaker:        guard.BreakerOptions{Threshold: 2, Cooldown: time.Hour, Now: clk.Now},
	})
	defer s.Close()
	panicMatrix := guard.Fault{Engine: "matrix", Point: guard.PointCheckpoint, Mode: guard.ModePanic, Times: -1}
	for i := 0; i < 2; i++ {
		res, err := s.Analyze(context.Background(), injected(gen.Figure2(), "hedged", panicMatrix))
		if err != nil {
			t.Fatalf("hedged with a panicking matrix engine: %v", err)
		}
		if res.Engine != "statespace" || !res.Verified {
			t.Fatalf("answered by %q (verified %v), want the next engine, statespace", res.Engine, res.Verified)
		}
		if report := strings.Join(res.Report, "\n"); !strings.Contains(report, "matrix      failed:") {
			t.Errorf("report does not show the matrix failure:\n%s", report)
		}
	}
	if st := s.BreakerState("matrix"); st != "open" {
		t.Fatalf("matrix breaker = %s, want open after two panics", st)
	}
	res, err := s.Analyze(context.Background(), &Request{Graph: gen.Figure3(6), Method: "hedged"})
	if err != nil {
		t.Fatalf("hedged with the matrix breaker open: %v", err)
	}
	if res.Engine != "statespace" || !res.Verified {
		t.Fatalf("answered by %q (verified %v), want statespace", res.Engine, res.Verified)
	}
	report := strings.Join(res.Report, "\n")
	if !strings.Contains(report, "matrix      skipped: gated:") {
		t.Errorf("report does not show matrix gated:\n%s", report)
	}
}
