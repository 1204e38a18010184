package sdfreduce

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// analysisBudgetCtx returns a context with a short deadline and a small
// uniform budget: the contract under test is that every analysis either
// answers or returns a structured error well before the watchdog, and
// never panics.
func analysisBudgetCtx(t testing.TB) (context.Context, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	return WithBudget(ctx, UniformBudget(1<<16)), cancel
}

// exercise runs the full analysis surface on g, discarding results: the
// assertions are "returns" (deadline + budget) and "does not panic"
// (isolation). Errors are expected for most perturbed graphs.
func exercise(ctx context.Context, g *Graph) {
	_, _ = ComputeThroughputCtx(ctx, g, MethodMatrix)
	_, _, _ = ComputeThroughputHedged(ctx, g)
	_, _, _ = ConvertTraditionalCtx(ctx, g)
	_, _, _, _ = ConvertSymbolicCtx(ctx, g)
	_, _ = ComputeLatencyCtx(ctx, g)
	_, _ = SimulateCtx(ctx, g, 2)
}

// perturbGraph rebuilds g with rates, initial tokens and execution
// times mutated by the byte stream, preserving the topology. All rates
// stay >= 1 so construction itself cannot fail; everything else —
// consistency, liveness, magnitudes — is fair game.
func perturbGraph(g *Graph, data []byte) *Graph {
	if len(data) == 0 {
		return g
	}
	k := 0
	next := func() int {
		b := data[k%len(data)]
		k++
		return int(b)
	}
	out := NewGraph(g.Name() + "_perturbed")
	ids := make([]ActorID, g.NumActors())
	for i, a := range g.Actors() {
		// Occasionally near-overflow execution times to stress the
		// checked arithmetic paths.
		exec := int64(next() % 100)
		if next()%17 == 0 {
			exec = (int64(1) << 61) + int64(next())
		}
		ids[i] = out.MustAddActor(a.Name, exec)
	}
	for _, c := range g.Channels() {
		prod := 1 + next()%9
		cons := 1 + next()%9
		initial := next() % 5
		out.MustAddChannel(ids[c.Src], ids[c.Dst], prod, cons, initial)
	}
	return out
}

// FuzzPerturb fuzzes the analysis surface with perturbed versions of
// the paper's running example: random rates, delays and execution times
// must never panic or outlive the deadline (satellite of the resilience
// runtime).
func FuzzPerturb(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{2, 1, 0, 3})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{255, 0, 255, 0, 16, 32, 64, 128})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := perturbGraph(Figure2(), data)
		ctx, cancel := analysisBudgetCtx(t)
		defer cancel()
		done := make(chan struct{})
		go func() {
			defer close(done)
			exercise(ctx, g)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("analysis hung past deadline and budget on %v", data)
		}
	})
}

// TestChaosPerturbations is the deterministic companion of FuzzPerturb:
// a table of seed graphs, each perturbed many times with a seeded PRNG,
// driven through every analysis under deadline and budget. The test
// fails on panic or hang; errors are legitimate outcomes.
func TestChaosPerturbations(t *testing.T) {
	prefetch, err := Prefetch(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []struct {
		name string
		g    *Graph
	}{
		{"figure2", Figure2()},
		{"figure3", Figure3(5)},
		{"prefetch", prefetch},
	}
	for _, seed := range seeds {
		t.Run(seed.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for round := 0; round < 25; round++ {
				data := make([]byte, 8+rng.Intn(24))
				rng.Read(data)
				g := perturbGraph(seed.g, data)
				ctx, cancel := analysisBudgetCtx(t)
				exercise(ctx, g)
				cancel()
			}
		})
	}
}

// TestChaosUnperturbedSanity pins that the unperturbed seed graphs
// still analyse cleanly under the same deadline and budget, so the
// chaos harness cannot silently degenerate into testing only failures.
func TestChaosUnperturbedSanity(t *testing.T) {
	ctx, cancel := analysisBudgetCtx(t)
	defer cancel()
	tp, rep, err := ComputeThroughputHedged(ctx, Figure2())
	if err != nil {
		t.Fatalf("hedged on Figure 2: %v\n%s", err, rep)
	}
	if tp.Unbounded {
		t.Error("Figure 2 reported unbounded throughput")
	}
}
