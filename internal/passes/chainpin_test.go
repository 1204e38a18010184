package passes_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/lint"
	"repro/internal/passes"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/verify"
)

// pinGraphs is the corpus of the chain-fusion pin: the reduction corpus
// under testdata/graphs, the Table-1 and Reducible() benchmarks, fusible
// rings with and without a dead tail for every size 2…130, and seeded
// random graphs of both generators, each also in a shuffled order.
func pinGraphs(t *testing.T) []*sdf.Graph {
	t.Helper()
	var out []*sdf.Graph
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "graphs", "*.sdf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus graphs: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sdfio.ParseText(string(b))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out = append(out, g)
	}
	for _, c := range append(benchmarks.All(), benchmarks.Reducible()...) {
		out = append(out, c.Graph())
	}
	for n := 2; n <= 130; n++ {
		out = append(out, benchmarks.FusibleRing(n), benchmarks.RingWithDeadTail(n, 1+n%6))
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 1000; i++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(24), MaxRep: 1 + rng.Int63n(3), MaxExec: 9, Chords: rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		h, err := gen.RandomRegularMultirate(rng, gen.RegularOptions{
			Groups: 1 + rng.Intn(4), Copies: 2 + rng.Intn(6), Links: rng.Intn(3), MaxExec: 9,
		}, 1+rng.Int63n(3))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g, h, shuffled(rng, g), shuffled(rng, h))
	}
	return out
}

// shuffled rebuilds g with its actors and channels in a random order.
// Both generators number chain members consecutively, so only the
// shuffled copies put bystanders between a chain's head and its tail.
func shuffled(rng *rand.Rand, g *sdf.Graph) *sdf.Graph {
	out := sdf.NewGraph(g.Name())
	ids := make([]sdf.ActorID, g.NumActors())
	for _, i := range rng.Perm(g.NumActors()) {
		a := g.Actor(sdf.ActorID(i))
		ids[i] = out.MustAddActor(a.Name, a.Exec)
	}
	for _, i := range rng.Perm(g.NumChannels()) {
		c := g.Channel(sdf.ChannelID(i))
		out.MustAddChannel(ids[c.Src], ids[c.Dst], c.Prod, c.Cons, c.Initial)
	}
	return out
}

// TestChainFusionMatchesPairwise pins the maximal-chain rule to the
// pairwise rule it replaced: on every prechecked pin graph the fixpoint
// must reach a text-identical reduced graph with the same scale. The
// reduced graph is what the engines analyse and what the serving cache
// keys on, so any drift here would change answers or cache hits. Every
// step of the new fixpoint must also pass its certificate check.
func TestChainFusionMatchesPairwise(t *testing.T) {
	ctx := context.Background()
	compared, fused := 0, 0
	for i, g := range pinGraphs(t) {
		if lint.Precheck(g) != nil {
			continue
		}
		got, err := passes.Reduce(ctx, g, passes.Options{})
		if err != nil {
			t.Fatalf("graph %d (%s): %v", i, g.Name(), err)
		}
		ref, err := passes.Reduce(ctx, g, passes.Options{Rules: passes.RefPairwiseRules()})
		if err != nil {
			t.Fatalf("graph %d (%s): reference: %v", i, g.Name(), err)
		}
		compared++
		if gt, rt := sdfio.TextString(got.Final), sdfio.TextString(ref.Final); gt != rt || got.Scale() != ref.Scale() {
			t.Fatalf("graph %d (%s): reduced graphs differ (scale %d vs %d)\nmaximal:\n%s\npairwise:\n%s\ninput:\n%s",
				i, g.Name(), got.Scale(), ref.Scale(), gt, rt, sdfio.TextString(g))
		}
		chainFused := false
		for _, s := range got.Steps {
			step := s.LiftStep()
			if err := step.Check(ctx, s.Before); err != nil {
				t.Fatalf("graph %d (%s): %s step rejected: %v", i, g.Name(), s.Rule.Name, err)
			}
			chainFused = chainFused || s.Rule.Name == verify.RuleChainFusion
		}
		if chainFused {
			fused++
		}
	}
	t.Logf("%d prechecked graphs match the pairwise reference; chain fusion fired on %d", compared, fused)
	if compared < 4000 || fused < compared/4 {
		t.Fatalf("pin corpus too weak: %d graphs compared, chain fusion fired on %d", compared, fused)
	}
}

// TestChainFusionOneStepPerRing: a fusible ring of any size closes in
// one chain-fusion application, where the pairwise rule took n−1.
func TestChainFusionOneStepPerRing(t *testing.T) {
	for _, n := range []int{2, 3, 17, 130} {
		red, err := passes.Reduce(context.Background(), benchmarks.FusibleRing(n), passes.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(red.Steps) != 1 || red.Final.NumActors() != 1 {
			t.Fatalf("ring %d: %d steps to %d actors, want 1 step to 1 actor\n%s",
				n, len(red.Steps), red.Final.NumActors(), strings.Join(red.Trace(), "\n"))
		}
	}
}
