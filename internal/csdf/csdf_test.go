package csdf

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/mcm"
	"repro/internal/rat"
)

// twoPhaseProducer builds P (phases [1 3], producing [1 2]) feeding C
// (single phase, consuming 1), with feedback keeping the graph bounded.
func twoPhaseProducer() *Graph {
	g := NewGraph("twophase")
	p := g.MustAddActor("P", []int64{1, 3})
	c := g.MustAddActor("C", []int64{2})
	g.MustAddChannel(p, c, []int{1, 2}, []int{1}, 0)
	g.MustAddChannel(c, p, []int{1}, []int{2, 1}, 3)
	g.MustAddChannel(p, p, []int{1, 1}, []int{1, 1}, 1) // serialise P
	g.MustAddChannel(c, c, []int{1}, []int{1}, 1)       // serialise C
	return g
}

func TestAddActorErrors(t *testing.T) {
	g := NewGraph("t")
	if _, err := g.AddActor("", []int64{1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := g.AddActor("A", nil); err == nil {
		t.Error("zero phases accepted")
	}
	if _, err := g.AddActor("A", []int64{-1}); err == nil {
		t.Error("negative exec accepted")
	}
	g.MustAddActor("A", []int64{1})
	if _, err := g.AddActor("A", []int64{1}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestAddChannelErrors(t *testing.T) {
	g := NewGraph("t")
	a := g.MustAddActor("A", []int64{1, 2})
	b := g.MustAddActor("B", []int64{1})
	if _, err := g.AddChannel(a, b, []int{1}, []int{1}, 0); err == nil {
		t.Error("short production sequence accepted")
	}
	if _, err := g.AddChannel(a, b, []int{1, 1}, []int{1, 1}, 0); err == nil {
		t.Error("long consumption sequence accepted")
	}
	if _, err := g.AddChannel(a, b, []int{0, 0}, []int{1}, 0); err == nil {
		t.Error("zero-total production accepted")
	}
	if _, err := g.AddChannel(a, b, []int{1, 1}, []int{1}, -1); err == nil {
		t.Error("negative tokens accepted")
	}
	if _, err := g.AddChannel(a, ActorID(9), []int{1, 1}, []int{1}, 0); err == nil {
		t.Error("bad endpoint accepted")
	}
}

func TestRepetitionVector(t *testing.T) {
	g := twoPhaseProducer()
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	// P produces 3 per cycle of 2 phases; C consumes 1 per firing.
	// r(P)·3 = r(C)·1 -> r = [1, 3]; q = phases·r = [2, 3].
	if q[0] != 2 || q[1] != 3 {
		t.Errorf("q = %v, want [2 3]", q)
	}
}

func TestRepetitionVectorInconsistent(t *testing.T) {
	g := NewGraph("bad")
	a := g.MustAddActor("A", []int64{1})
	b := g.MustAddActor("B", []int64{1})
	g.MustAddChannel(a, b, []int{1}, []int{1}, 0)
	g.MustAddChannel(a, b, []int{2}, []int{1}, 0)
	if _, err := g.RepetitionVector(); !errors.Is(err, ErrInconsistent) {
		t.Errorf("err = %v, want ErrInconsistent", err)
	}
}

func TestSequentialAndLiveness(t *testing.T) {
	g := twoPhaseProducer()
	sched, err := Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 5 { // q = [2 3]
		t.Errorf("schedule length %d, want 5", len(sched))
	}
	if !IsLive(g) {
		t.Error("live graph reported dead")
	}

	dead := NewGraph("dead")
	a := dead.MustAddActor("A", []int64{1})
	b := dead.MustAddActor("B", []int64{1})
	dead.MustAddChannel(a, b, []int{1}, []int{1}, 0)
	dead.MustAddChannel(b, a, []int{1}, []int{1}, 0)
	if IsLive(dead) {
		t.Error("dead graph reported live")
	}
}

func TestSymbolicIterationMatrixShape(t *testing.T) {
	g := twoPhaseProducer()
	r, err := SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Matrix.Size() != g.TotalInitialTokens() {
		t.Errorf("matrix size %d, tokens %d", r.Matrix.Size(), g.TotalInitialTokens())
	}
	if len(r.Schedule) != 5 {
		t.Errorf("schedule length %d", len(r.Schedule))
	}
}

func TestThroughputMatchesSimulation(t *testing.T) {
	g := twoPhaseProducer()
	period, unbounded, err := Throughput(g)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded {
		t.Fatal("unbounded")
	}
	measured := simulatedPeriod(t, g, 64)
	if !measured.Equal(period) {
		t.Errorf("simulated period %v, analytical %v", measured, period)
	}
}

// simulatedPeriod measures the per-iteration period over a window that is
// a multiple of the iteration matrix's cyclicity (the steady state may
// repeat only every few iterations), placed in the second half of the run.
func simulatedPeriod(t *testing.T, g *Graph, iters int64) rat.Rat {
	t.Helper()
	r, err := SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	pw, ok, err := r.Matrix.PowerIteration(1 << 20)
	if err != nil || !ok {
		t.Fatalf("power iteration: ok=%v err=%v", ok, err)
	}
	cyc := int64(pw.Period)
	k := (iters / 2 / cyc) * cyc
	if k < cyc {
		t.Fatalf("iteration budget %d too small for cyclicity %d", iters, cyc)
	}
	starts, _, err := Simulate(g, iters)
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	last := int64(len(starts[0])) - 1
	prev := last - q[0]*k
	if prev < 0 {
		t.Fatalf("window too large")
	}
	measured, err := rat.New(starts[0][last]-starts[0][prev], k)
	if err != nil {
		t.Fatal(err)
	}
	return measured
}

func TestConvertToHSDFPreservesThroughput(t *testing.T) {
	g := twoPhaseProducer()
	period, _, err := Throughput(g)
	if err != nil {
		t.Fatal(err)
	}
	h, stats, err := ConvertToHSDF(g)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsHSDF() {
		t.Error("conversion result not homogeneous")
	}
	n := g.TotalInitialTokens()
	if stats.Actors() > n*(n+2) {
		t.Errorf("size bound violated: %d > %d", stats.Actors(), n*(n+2))
	}
	res, err := mcm.MaxCycleRatio(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleMean.Equal(period) {
		t.Errorf("HSDF period %v != CSDF period %v", res.CycleMean, period)
	}
}

// An SDF graph expressed as single-phase CSDF must give identical
// analysis results.
func TestSinglePhaseReducesToSDF(t *testing.T) {
	g := NewGraph("sdf1")
	a := g.MustAddActor("A", []int64{3})
	b := g.MustAddActor("B", []int64{5})
	g.MustAddChannel(a, b, []int{1}, []int{1}, 1)
	g.MustAddChannel(b, a, []int{1}, []int{1}, 1)
	period, unbounded, err := Throughput(g)
	if err != nil || unbounded {
		t.Fatal(err)
	}
	if !period.Equal(rat.FromInt(4)) {
		t.Errorf("period = %v, want 4 ((3+5)/2)", period)
	}
}

// Property: analytical and simulated periods agree on random cyclo-static
// producer/consumer chains.
func TestQuickCSDFAnalysisMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomChain(rng)
		period, unbounded, err := Throughput(g)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g)
		}
		if unbounded {
			continue
		}
		measured := simulatedPeriod(t, g, 100)
		if !measured.Equal(period) {
			t.Errorf("trial %d: simulated %v, analytical %v\n%s", trial, measured, period, g)
		}
	}
}

// randomChain builds a two-actor cyclo-static loop with random phase
// counts, rates and enough feedback tokens to be live.
func randomChain(rng *rand.Rand) *Graph {
	g := NewGraph("randchain")
	pa := 1 + rng.Intn(3)
	pb := 1 + rng.Intn(3)
	execA := make([]int64, pa)
	prodA := make([]int, pa)
	for i := range execA {
		execA[i] = rng.Int63n(8)
		prodA[i] = 1 + rng.Intn(3)
	}
	execB := make([]int64, pb)
	consB := make([]int, pb)
	for i := range execB {
		execB[i] = rng.Int63n(8)
		consB[i] = 1 + rng.Intn(3)
	}
	a := g.MustAddActor("A", execA)
	b := g.MustAddActor("B", execB)
	g.MustAddChannel(a, b, prodA, consB, 0)
	// Feedback with one iteration's worth of tokens.
	sumP := 0
	for _, p := range prodA {
		sumP += p
	}
	sumC := 0
	for _, c := range consB {
		sumC += c
	}
	// q(A) = pa·rA, q(B) = pb·rB with rA·sumP = rB·sumC.
	gg := gcd(sumP, sumC)
	rA := sumC / gg
	rB := sumP / gg
	// Reverse rates: per B firing produce consB, per A firing consume prodA.
	tokensNeeded := 0
	for _, p := range prodA {
		tokensNeeded += p
	}
	tokensNeeded *= rA // one iteration's consumption by A on the feedback
	g.MustAddChannel(b, a, consB, prodA, tokensNeeded)
	_ = rB
	// Serialise both actors so the matrix is irreducible enough for the
	// period to be well defined.
	onesA := make([]int, pa)
	for i := range onesA {
		onesA[i] = 1
	}
	onesB := make([]int, pb)
	for i := range onesB {
		onesB[i] = 1
	}
	g.MustAddChannel(a, a, onesA, onesA, 1)
	g.MustAddChannel(b, b, onesB, onesB, 1)
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
