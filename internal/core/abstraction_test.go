package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcm"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// TestFigure1Abstraction reproduces the §4.1 example end to end: the
// abstraction of the n = 6 regular graph has execution times A = 5, B = 4,
// a one-token self-channel on each abstract actor, a zero-delay channel
// A→B and a two-token channel B→A; its iteration period is 5, so Theorem 1
// bounds the original throughput by 1/(5·6) = 1/30, conservative for the
// true 1/23.
func TestFigure1Abstraction(t *testing.T) {
	g, err := gen.Figure1(6)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := InferByName(g)
	if err != nil {
		t.Fatal(err)
	}
	if ab.N() != 6 {
		t.Errorf("N = %d, want 6", ab.N())
	}
	abstract, res, err := Abstract(g, ab)
	if err != nil {
		t.Fatal(err)
	}
	if abstract.NumActors() != 2 {
		t.Fatalf("abstract graph has %d actors, want 2:\n%s", abstract.NumActors(), abstract)
	}
	aID, ok := abstract.ActorByName("A")
	if !ok {
		t.Fatal("no abstract actor A")
	}
	bID, ok := abstract.ActorByName("B")
	if !ok {
		t.Fatal("no abstract actor B")
	}
	if abstract.Actor(aID).Exec != 5 {
		t.Errorf("T'(A) = %d, want 5 (max of 2,2,5,5,3,3)", abstract.Actor(aID).Exec)
	}
	if abstract.Actor(bID).Exec != 4 {
		t.Errorf("T'(B) = %d, want 4", abstract.Actor(bID).Exec)
	}
	// Channel structure of Figure 1(b).
	type ch struct {
		src, dst sdf.ActorID
		init     int
	}
	want := map[ch]bool{
		{aID, aID, 1}: true, // A self-channel, one token
		{bID, bID, 1}: true, // B self-channel, one token
		{aID, bID, 0}: true, // A -> B
		{bID, aID, 2}: true, // B -> A with two initial tokens
	}
	if abstract.NumChannels() != len(want) {
		t.Errorf("abstract graph has %d channels, want %d:\n%s", abstract.NumChannels(), len(want), abstract)
	}
	for _, c := range abstract.Channels() {
		if !want[ch{c.Src, c.Dst, c.Initial}] {
			t.Errorf("unexpected abstract channel %s -> %s init=%d",
				abstract.Actor(c.Src).Name, abstract.Actor(c.Dst).Name, c.Initial)
		}
	}

	// The abstract graph's iteration period is 5 (throughput 1/5).
	r, err := mcm.MaxCycleRatio(context.Background(), abstract)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CycleMean.Equal(rat.FromInt(5)) {
		t.Errorf("abstract period = %v, want 5", r.CycleMean)
	}

	// Theorem 1 bound: 1/(5·6) = 1/30.
	bound, err := ThroughputBound(r.CycleMean, res.N)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Equal(rat.MustNew(1, 30)) {
		t.Errorf("bound = %v, want 1/30", bound)
	}
	// Conservative against the true throughput 1/23.
	if bound.Cmp(rat.MustNew(1, 23)) > 0 {
		t.Errorf("bound %v exceeds true throughput 1/23", bound)
	}
	// Mechanical §5 proof.
	if err := VerifyAbstractionConservative(g, ab); err != nil {
		t.Errorf("conservativity proof failed: %v", err)
	}
}

func TestFigure1AbstractionLargerN(t *testing.T) {
	for _, n := range []int{8, 12, 24} {
		g, err := gen.Figure1(n)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := InferByName(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		abstract, res, err := Abstract(g, ab)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		r, err := mcm.MaxCycleRatio(context.Background(), abstract)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bound, err := ThroughputBound(r.CycleMean, res.N)
		if err != nil {
			t.Fatal(err)
		}
		// Bound must be 1/(5n) and conservative w.r.t. the real value.
		if !bound.Equal(rat.MustNew(1, int64(5*n))) {
			t.Errorf("n=%d: bound = %v, want 1/%d", n, bound, 5*n)
		}
		orig, err := mcm.MaxCycleRatio(context.Background(), g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// §4.1's generalisation: the true period is 5n−7.
		if !orig.CycleMean.Equal(rat.FromInt(int64(5*n - 7))) {
			t.Errorf("n=%d: period = %v, want %d", n, orig.CycleMean, 5*n-7)
		}
		tru, err := rat.One().Div(orig.CycleMean)
		if err != nil {
			t.Fatal(err)
		}
		if bound.Cmp(tru) > 0 {
			t.Errorf("n=%d: bound %v exceeds true throughput %v", n, bound, tru)
		}
		if err := VerifyAbstractionConservative(g, ab); err != nil {
			t.Errorf("n=%d: conservativity proof failed: %v", n, err)
		}
	}
}

func TestFigure2Abstraction(t *testing.T) {
	g := gen.Figure2()
	ab, err := InferByName(g)
	if err != nil {
		t.Fatal(err)
	}
	if ab.N() != 3 {
		t.Errorf("N = %d, want 3", ab.N())
	}
	abstract, res, err := Abstract(g, ab)
	if err != nil {
		t.Fatal(err)
	}
	// The per-actor self-loops map to a 3-token self-channel on A that is
	// redundant next to the 1-token one from the chain — §4.2's remark.
	// Pruning keeps the 1-token channel.
	aID, _ := abstract.ActorByName("A")
	for _, c := range abstract.Channels() {
		if c.Src == aID && c.Dst == aID && c.Initial != 1 {
			t.Errorf("A self-channel has %d tokens, want pruned to 1", c.Initial)
		}
	}
	if res.PrunedChannels == 0 {
		t.Error("expected redundant channels to be pruned")
	}
	if err := VerifyAbstractionConservative(g, ab); err != nil {
		t.Errorf("conservativity proof failed: %v", err)
	}
	// Empirical conservativity: abstract period / N >= original period /
	// iteration... both homogeneous: τ_bound = 1/(N·Λ') <= 1/Λ.
	or, err := mcm.MaxCycleRatio(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := mcm.MaxCycleRatio(context.Background(), abstract)
	if err != nil {
		t.Fatal(err)
	}
	nLam, err := ar.CycleMean.MulInt(int64(res.N))
	if err != nil {
		t.Fatal(err)
	}
	if nLam.Cmp(or.CycleMean) < 0 {
		t.Errorf("N·Λ' = %v < Λ = %v: abstraction not conservative", nLam, or.CycleMean)
	}
}

// TestFigure5PrefetchExact reproduces the §7 claim that the abstraction of
// the remote-memory-access model has exactly the throughput of the
// original graph.
func TestFigure5PrefetchExact(t *testing.T) {
	const blocks, window = 48, 3 // scaled-down frame; the bench runs 1584
	g, err := gen.Prefetch(blocks, window)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := InferByName(g)
	if err != nil {
		t.Fatal(err)
	}
	abstract, res, err := Abstract(g, ab)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != blocks {
		t.Errorf("N = %d, want %d", res.N, blocks)
	}
	orig, err := mcm.MaxCycleRatio(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := mcm.MaxCycleRatio(context.Background(), abstract)
	if err != nil {
		t.Fatal(err)
	}
	nLam, err := abs.CycleMean.MulInt(int64(res.N))
	if err != nil {
		t.Fatal(err)
	}
	if !nLam.Equal(orig.CycleMean) {
		t.Errorf("abstraction not exact: N·Λ' = %v, Λ = %v", nLam, orig.CycleMean)
	}
	if err := VerifyAbstractionConservative(g, ab); err != nil {
		t.Errorf("conservativity proof failed: %v", err)
	}
}

func TestAbstractionValidation(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 2)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 1)

	// Valid: both in one group, indices 0 and 1.
	ok := &Abstraction{Alpha: []string{"G", "G"}, Index: []int{0, 1}}
	if err := ok.Validate(g); err != nil {
		t.Errorf("valid abstraction rejected: %v", err)
	}
	// Duplicate index within a group.
	dup := &Abstraction{Alpha: []string{"G", "G"}, Index: []int{0, 0}}
	if err := dup.Validate(g); err == nil {
		t.Error("duplicate index accepted")
	}
	// Zero-delay channel against index order.
	rev := &Abstraction{Alpha: []string{"G", "G"}, Index: []int{1, 0}}
	if err := rev.Validate(g); err == nil {
		t.Error("index order violation accepted")
	}
	// Wrong length.
	short := &Abstraction{Alpha: []string{"G"}, Index: []int{0}}
	if err := short.Validate(g); err == nil {
		t.Error("short abstraction accepted")
	}
	// Negative index.
	neg := &Abstraction{Alpha: []string{"G", "G"}, Index: []int{-1, 0}}
	if err := neg.Validate(g); err == nil {
		t.Error("negative index accepted")
	}
	// Empty group name.
	empty := &Abstraction{Alpha: []string{"", "G"}, Index: []int{0, 1}}
	if err := empty.Validate(g); err == nil {
		t.Error("empty group name accepted")
	}
}

func TestAbstractionMixedRepetitionRejected(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A1", 1)
	b := g.MustAddActor("A2", 1)
	g.MustAddChannel(a, b, 2, 1, 0) // q(A1)=1, q(A2)=2
	g.MustAddChannel(b, a, 1, 2, 2)
	ab := &Abstraction{Alpha: []string{"A", "A"}, Index: []int{0, 1}}
	if err := ab.Validate(g); err == nil || !strings.Contains(err.Error(), "repetition") {
		t.Errorf("mixed repetition counts accepted: %v", err)
	}
}

func TestAbstractIdentity(t *testing.T) {
	// The identity abstraction (every actor its own group, index 0)
	// returns a graph with the same timing.
	g := gen.Figure2()
	alpha := make([]string, g.NumActors())
	index := make([]int, g.NumActors())
	for i := range alpha {
		alpha[i] = g.Actor(sdf.ActorID(i)).Name
	}
	ab := &Abstraction{Alpha: alpha, Index: index}
	abstract, res, err := Abstract(g, ab)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 {
		t.Errorf("N = %d, want 1", res.N)
	}
	or, err := mcm.MaxCycleRatio(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := mcm.MaxCycleRatio(context.Background(), abstract)
	if err != nil {
		t.Fatal(err)
	}
	if !or.CycleMean.Equal(ar.CycleMean) {
		t.Errorf("identity abstraction changed the period: %v -> %v", or.CycleMean, ar.CycleMean)
	}
}

// Property: on random regular graphs (the structures §4 targets), the
// name-based abstraction always validates, the mechanical §5 proof always
// discharges, and the Theorem-1 bound never exceeds the true throughput.
func TestQuickRegularAbstractionConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		g, err := gen.RandomRegular(rng, gen.RegularOptions{
			Groups:  1 + rng.Intn(4),
			Copies:  2 + rng.Intn(6),
			Links:   rng.Intn(6),
			MaxExec: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		ab, err := InferByName(g)
		if err != nil {
			t.Fatalf("trial %d: infer: %v\n%s", trial, err, g)
		}
		if err := VerifyAbstractionConservative(g, ab); err != nil {
			t.Fatalf("trial %d: proof: %v\n%s", trial, err, g)
		}
		abstract, res, err := Abstract(g, ab)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := mcm.MaxCycleRatio(context.Background(), g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		abs, err := mcm.MaxCycleRatio(context.Background(), abstract)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !orig.HasCycle || !abs.HasCycle {
			t.Fatalf("trial %d: missing cycles", trial)
		}
		nLam, err := abs.CycleMean.MulInt(int64(res.N))
		if err != nil {
			t.Fatal(err)
		}
		// Conservative: N·Λ' >= Λ.
		if nLam.Cmp(orig.CycleMean) < 0 {
			t.Errorf("trial %d: N·Λ' = %v < Λ = %v\n%s", trial, nLam, orig.CycleMean, g)
		}
	}
}

// The paper notes the abstraction "can be extended to non-homogeneous
// graphs as well" (§4.2). Property: on random multirate regular graphs
// with equal-rate groups, the abstraction validates and is empirically
// conservative: N·Λ' >= Λ where Λ, Λ' are the iteration periods of the
// original and the abstract graph.
func TestQuickMultirateRegularAbstractionConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 30; trial++ {
		g, err := gen.RandomRegularMultirate(rng, gen.RegularOptions{
			Groups:  1 + rng.Intn(3),
			Copies:  2 + rng.Intn(4),
			Links:   rng.Intn(5),
			MaxExec: 7,
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := InferByName(g)
		if err != nil {
			t.Fatalf("trial %d: infer: %v\n%s", trial, err, g)
		}
		abstract, res, err := Abstract(g, ab)
		if err != nil {
			t.Fatalf("trial %d: abstract: %v\n%s", trial, err, g)
		}
		origPeriod, origOK := multiratePeriod(t, g)
		absPeriod, absOK := multiratePeriod(t, abstract)
		if !origOK || !absOK {
			continue // no recurrent constraint in one of the graphs
		}
		nLam, err := absPeriod.MulInt(int64(res.N))
		if err != nil {
			t.Fatal(err)
		}
		// Conservative: the abstract bound per member firing is weaker.
		// Original actor a fires q(a) per Λ; abstract α(a) fires q(a) per
		// Λ', but each abstract firing stands for one member firing out
		// of N, so τ_bound = q/(N·Λ') and conservativity is N·Λ' >= Λ.
		if nLam.Cmp(origPeriod) < 0 {
			t.Errorf("trial %d: N·Λ' = %v < Λ = %v\n%s\nabstract:\n%s",
				trial, nLam, origPeriod, g, abstract)
		}
	}
}

func multiratePeriod(t *testing.T, g *sdf.Graph) (rat.Rat, bool) {
	t.Helper()
	r, err := SymbolicIteration(g)
	if err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
	lam, ok, err := r.Matrix.Eigenvalue()
	if err != nil {
		t.Fatal(err)
	}
	return lam, ok
}
