package analysis

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// collect sums one metric family's series values grouped by a label.
func collect(t *testing.T, reg *obs.Registry, name, label string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		if s.Kind == obs.KindHistogram {
			out[s.Label(label)] += s.Hist.Count
		} else {
			out[s.Label(label)] += s.Value
		}
	}
	return out
}

// TestResilientLadderInstrumented: a hedged run with a registry in the
// context produces one attempt counter per engine, a wall time on the
// winning attempt, and per-phase span series for the certified engine.
func TestResilientLadderInstrumented(t *testing.T) {
	reg := obs.New()
	reg.EnableEvents(64)
	ctx := obs.WithRegistry(context.Background(), reg)

	_, rep, err := ComputeThroughputHedged(ctx, gen.Figure2())
	if err != nil {
		t.Fatalf("hedged: %v\n%s", err, rep)
	}
	if !rep.Answered || rep.Winner != Matrix {
		t.Fatalf("winner = %v (answered=%v), want matrix", rep.Winner, rep.Answered)
	}
	if rep.Attempts[0].Wall <= 0 {
		t.Errorf("winning attempt has no wall time: %+v", rep.Attempts[0])
	}

	byOutcome := collect(t, reg, obs.MetricEngineAttempts, "outcome")
	if byOutcome["answered"] != 1 || byOutcome["skipped"] != 2 {
		t.Errorf("attempt outcomes = %v, want 1 answered + 2 skipped", byOutcome)
	}

	// The winning matrix engine times its phases.
	spans := collect(t, reg, obs.MetricSpanSeconds, "span")
	for _, phase := range []string{"analysis.symbolic", "analysis.eigenvalue", "analysis.certify"} {
		if spans[phase] != 1 {
			t.Errorf("span %q observed %d times, want 1 (all: %v)", phase, spans[phase], spans)
		}
	}

	// The ring saw the non-skipped attempt.
	events, total := reg.Events()
	if total == 0 {
		t.Fatal("no events recorded")
	}
	found := false
	for _, e := range events {
		if e.Name == "hedge.attempt" && e.Attrs["outcome"] == "answered" {
			found = true
		}
	}
	if !found {
		t.Errorf("no hedge.attempt answered event in %v", events)
	}
}

// TestHedgedRaceInstrumented: a hedged race counts the race outcome,
// the winner, and one attempt per engine.
func TestHedgedRaceInstrumented(t *testing.T) {
	defer noLeaks(t)
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)

	_, rep, err := ComputeThroughputHedgedOpts(ctx, gen.Figure2(), HedgeOptions{CrossCheck: true})
	if err != nil {
		t.Fatalf("hedged: %v\n%s", err, rep)
	}

	races := collect(t, reg, obs.MetricHedgeRaces, "outcome")
	if races["answered"] != 1 {
		t.Errorf("race outcomes = %v, want 1 answered", races)
	}
	wins := collect(t, reg, obs.MetricHedgeWins, "engine")
	if wins[rep.Winner.String()] != 1 {
		t.Errorf("hedge wins = %v, want 1 for %v", wins, rep.Winner)
	}
	attempts := collect(t, reg, obs.MetricEngineAttempts, "engine")
	for _, m := range []Method{Matrix, StateSpace, HSDF} {
		if attempts[m.String()] != 1 {
			t.Errorf("engine %v counted %d attempts, want 1 (all: %v)", m, attempts[m.String()], attempts)
		}
	}
	// The certified engines time their verification phase too.
	spans := collect(t, reg, obs.MetricSpanSeconds, "span")
	if spans["analysis.certify"] == 0 {
		t.Errorf("no analysis.certify spans recorded (all: %v)", spans)
	}
	for _, a := range rep.Attempts {
		if a.Wall <= 0 {
			t.Errorf("attempt %v has no wall time", a.Method)
		}
	}
}

// TestAnalysisWithoutRegistry: the acceptance contract — no registry in
// the context means every instrumentation call is a no-op and analysis
// behaves exactly as before.
func TestAnalysisWithoutRegistry(t *testing.T) {
	defer noLeaks(t)
	if _, err := ComputeThroughputCtx(context.Background(), gen.Figure2(), Matrix); err != nil {
		t.Fatalf("matrix without registry: %v", err)
	}
	if _, rep, err := ComputeThroughputHedged(context.Background(), gen.Figure2()); err != nil {
		t.Fatalf("hedged without registry: %v\n%s", err, rep)
	}
}
