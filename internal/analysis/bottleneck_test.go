package analysis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rat"
	"repro/internal/sdf"
)

func TestFindBottleneckSimpleCycle(t *testing.T) {
	// Two loops sharing A: the A<->C loop (mean 11) dominates A<->B
	// (mean 2); the critical channels are exactly the A<->C pair.
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 2)
	c := g.MustAddActor("C", 9)
	abCh := g.MustAddChannel(a, b, 1, 1, 1)
	baCh := g.MustAddChannel(b, a, 1, 1, 1)
	acCh := g.MustAddChannel(a, c, 1, 1, 0)
	caCh := g.MustAddChannel(c, a, 1, 1, 1)
	res, err := FindBottleneck(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unbounded {
		t.Fatal("unexpected unbounded")
	}
	if !res.Period.Equal(rat.FromInt(11)) {
		t.Errorf("period = %v, want 11", res.Period)
	}
	critical := make(map[sdf.ChannelID]bool)
	for _, ch := range res.CriticalChannels {
		critical[ch] = true
	}
	if !critical[caCh] {
		t.Errorf("critical channels %v missing C->A (%d)", res.CriticalChannels, caCh)
	}
	if critical[abCh] || critical[baCh] {
		t.Errorf("slack loop A<->B reported critical: %v", res.CriticalChannels)
	}
	_ = acCh // zero-token channel: carries no critical token by definition
}

func TestFindBottleneckFigure1(t *testing.T) {
	g, err := gen.Figure1(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FindBottleneck(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Period.Equal(rat.FromInt(23)) {
		t.Errorf("period = %v, want 23", res.Period)
	}
	// The single token (on A6 -> A1) is necessarily the critical one.
	if len(res.CriticalTokens) != 1 || res.CriticalTokens[0] != 0 {
		t.Errorf("critical tokens = %v, want [0]", res.CriticalTokens)
	}
}

func TestFindBottleneckUnbounded(t *testing.T) {
	g := sdf.NewGraph("pipe")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	res, err := FindBottleneck(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unbounded {
		t.Error("pipeline not reported unbounded")
	}
}

// Property: the critical cycle's mean, recomputed from the matrix entries
// along the reported token cycle, equals the period; and adding a token
// to a critical channel never makes the graph slower.
func TestQuickBottleneckConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var graphs []*sdf.Graph
	for trial := 0; trial < 30; trial++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(4), MaxRep: 3, MaxExec: 9, Chords: rng.Intn(3), SelfLoop: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	// The critical cycles above are nearly all one self-loop token. On a
	// single-rate ring with tokens on several channels and one backward
	// chord, the critical cycle passes through several tokens.
	for trial := 0; trial < 20; trial++ {
		g := sdf.NewGraph("ring")
		n := 3 + rng.Intn(5)
		for i := 0; i < n; i++ {
			g.MustAddActor(fmt.Sprintf("a%d", i), 1+rng.Int63n(9))
		}
		for i := 0; i < n-1; i++ {
			g.MustAddChannel(sdf.ActorID(i), sdf.ActorID(i+1), 1, 1, rng.Intn(2))
		}
		g.MustAddChannel(sdf.ActorID(n-1), 0, 1, 1, 1)
		from := 1 + rng.Intn(n-1)
		g.MustAddChannel(sdf.ActorID(from), sdf.ActorID(rng.Intn(from)), 1, 1, 1)
		graphs = append(graphs, g)
	}
	for trial, g := range graphs {
		res, err := FindBottleneck(g)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g)
		}
		if res.Unbounded {
			continue
		}
		if len(res.CriticalChannels) == 0 {
			t.Fatalf("trial %d: no critical channels", trial)
		}
		// The reported tokens must be a closed walk of the matrix's
		// precedence graph (token cur feeds token next, wrapping around)
		// whose entries average to the period.
		r, err := core.SymbolicIteration(g)
		if err != nil {
			t.Fatal(err)
		}
		cycle := res.CriticalTokens
		var sum int64
		for i, cur := range cycle {
			next := cycle[(i+1)%len(cycle)]
			e := r.Matrix.At(next, cur)
			if e.IsNegInf() {
				t.Fatalf("trial %d: critical tokens %v: no entry from token %d to %d", trial, cycle, cur, next)
			}
			sum += int64(e)
		}
		if mean := rat.MustNew(sum, int64(len(cycle))); !mean.Equal(res.Period) {
			t.Errorf("trial %d: critical tokens %v have mean %v, period %v", trial, cycle, mean, res.Period)
		}
		// Adding a pipelining token to the first critical channel can
		// only help (or leave the period unchanged if another cycle also
		// attains it).
		relaxed := g.Clone()
		ch := res.CriticalChannels[0]
		if err := relaxed.SetInitial(ch, relaxed.Channel(ch).Initial+1); err != nil {
			t.Fatal(err)
		}
		tp, err := ComputeThroughput(relaxed, Matrix)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !tp.Unbounded && tp.Period.Cmp(res.Period) > 0 {
			t.Errorf("trial %d: adding a token to critical channel %d slowed the graph: %v > %v",
				trial, ch, tp.Period, res.Period)
		}
	}
}
