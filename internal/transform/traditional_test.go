package transform

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcm"
	"repro/internal/rat"
	"repro/internal/sdf"
)

func cd2dat() *sdf.Graph {
	g := sdf.NewGraph("cd2dat")
	a := g.MustAddActor("a", 2)
	b := g.MustAddActor("b", 3)
	c := g.MustAddActor("c", 1)
	d := g.MustAddActor("d", 4)
	e := g.MustAddActor("e", 2)
	f := g.MustAddActor("f", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, c, 2, 3, 0)
	g.MustAddChannel(c, d, 2, 7, 0)
	g.MustAddChannel(d, e, 8, 7, 0)
	g.MustAddChannel(e, f, 5, 1, 0)
	// Feedback closing the pipeline: q(f)=160, q(a)=147, so balanced rates
	// are 147/160; one iteration's worth of tokens keeps it live.
	g.MustAddChannel(f, a, 147, 160, 160*147)
	return g
}

func TestTraditionalActorCountIsIterationLength(t *testing.T) {
	g := cd2dat()
	h, stats, err := Traditional(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.IterationLength()
	if err != nil {
		t.Fatal(err)
	}
	if int64(stats.Actors) != want || int64(h.NumActors()) != want {
		t.Errorf("actors = %d (stats %d), want %d", h.NumActors(), stats.Actors, want)
	}
	if !h.IsHSDF() {
		t.Error("traditional conversion result not homogeneous")
	}
}

func TestTraditionalSimpleTwoActor(t *testing.T) {
	// A -(2,3)-> B with 3 tokens; q = [3, 2].
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 4)
	b := g.MustAddActor("B", 6)
	g.MustAddChannel(a, b, 2, 3, 3)
	g.MustAddChannel(b, a, 3, 2, 4)
	h, stats, err := Traditional(g)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Actors != 5 {
		t.Errorf("actors = %d, want 5", stats.Actors)
	}
	// Token positions: B firing 0 consumes positions -3, -2, -1 (all
	// initial). Firing 1 consumes 0, 1, 2: produced by A firings 0 and 1.
	a0, _ := h.ActorByName("A_0")
	a1, _ := h.ActorByName("A_1")
	b1, _ := h.ActorByName("B_1")
	found00, found11 := false, false
	for _, c := range h.Channels() {
		if c.Src == a0 && c.Dst == b1 && c.Initial == 0 {
			found00 = true
		}
		if c.Src == a1 && c.Dst == b1 && c.Initial == 0 {
			found11 = true
		}
	}
	if !found00 || !found11 {
		t.Errorf("missing expected dependency channels A_0/A_1 -> B_1:\n%s", h)
	}
}

func TestTraditionalSelfLoopDelayOne(t *testing.T) {
	// Self-loop with 1 token on an actor with q = 2 sequences its two
	// firings per iteration and across iterations.
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 5)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, a, 1, 1, 1)
	g.MustAddChannel(a, b, 1, 2, 0)
	g.MustAddChannel(b, a, 2, 1, 2)
	h, _, err := Traditional(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcm.MaxCycleRatio(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	// A's firings are serialised: the cycle A_0 -> A_1 -> A_0 has 1 token
	// and weight 10, so the period is at least 10.
	if res.CycleMean.Cmp(rat.FromInt(10)) < 0 {
		t.Errorf("period = %v, want >= 10 (self-loop serialisation)", res.CycleMean)
	}
}

func TestTraditionalPreservesThroughputVsMCM(t *testing.T) {
	// For an already homogeneous graph, the conversion is (up to pruning)
	// the graph itself; the cycle mean must be unchanged.
	g, err := gen.Figure1(6)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := Traditional(g)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := mcm.MaxCycleRatio(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := mcm.MaxCycleRatio(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.CycleMean.Equal(rh.CycleMean) {
		t.Errorf("conversion changed period: %v -> %v", ro.CycleMean, rh.CycleMean)
	}
}

func TestTraditionalInconsistent(t *testing.T) {
	g := sdf.NewGraph("bad")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(a, b, 2, 1, 0)
	if _, _, err := Traditional(g); err == nil {
		t.Error("Traditional accepted inconsistent graph")
	}
}

func TestTraditionalRandomGraphsStayHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(5), MaxRep: 4, MaxExec: 9, Chords: rng.Intn(4), SelfLoop: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		h, stats, err := Traditional(g)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g)
		}
		if !h.IsHSDF() {
			t.Fatalf("trial %d: not homogeneous", trial)
		}
		want, err := g.IterationLength()
		if err != nil {
			t.Fatal(err)
		}
		if int64(stats.Actors) != want {
			t.Errorf("trial %d: actors = %d, want %d", trial, stats.Actors, want)
		}
	}
}

func TestWithBufferCapacities(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	ch := g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 1)

	bounded, err := WithBufferCapacities(g, map[sdf.ChannelID]int{ch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.NumChannels() != g.NumChannels()+1 {
		t.Errorf("bounded graph has %d channels, want %d", bounded.NumChannels(), g.NumChannels()+1)
	}
	rev := bounded.Channel(sdf.ChannelID(bounded.NumChannels() - 1))
	if rev.Src != b || rev.Dst != a || rev.Initial != 2 {
		t.Errorf("reverse channel = %+v", rev)
	}

	// Errors.
	if _, err := WithBufferCapacities(g, map[sdf.ChannelID]int{ch: 0}); err == nil {
		t.Error("capacity below rate accepted")
	}
	if _, err := WithBufferCapacities(g, map[sdf.ChannelID]int{sdf.ChannelID(9): 2}); err == nil {
		t.Error("bad channel id accepted")
	}
	g2 := sdf.NewGraph("t2")
	x := g2.MustAddActor("X", 1)
	y := g2.MustAddActor("Y", 1)
	c2 := g2.MustAddChannel(x, y, 1, 1, 3)
	if _, err := WithBufferCapacities(g2, map[sdf.ChannelID]int{c2: 2}); err == nil {
		t.Error("capacity below initial tokens accepted")
	}
}

func TestBufferCapacityLimitsThroughput(t *testing.T) {
	// A fast producer into a slow consumer: with a small buffer the
	// producer throttles to the consumer's pace.
	g := sdf.NewGraph("t")
	p := g.MustAddActor("P", 1)
	c := g.MustAddActor("C", 10)
	ch := g.MustAddChannel(p, c, 1, 1, 0)
	g.MustAddChannel(p, p, 1, 1, 1) // serialise the producer
	g.MustAddChannel(c, c, 1, 1, 1) // serialise the consumer

	bounded, err := WithBufferCapacities(g, map[sdf.ChannelID]int{ch: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcm.MaxCycleRatio(context.Background(), bounded)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle P -> C -> P via the credit channel: (1+10)/1 = 11.
	if !res.CycleMean.Equal(rat.FromInt(11)) {
		t.Errorf("bounded period = %v, want 11", res.CycleMean)
	}
}

// TestConvertRecordsOrigins pins the provenance the HSDF engine's
// certificate maps its witnesses through: every channel u→v of the
// conversion keeps a token of a channel of g from u's actor to v's,
// consumed by v's firing at its recorded FIFO position, and a channel
// with d delays keeps a token that sits among the initial tokens at d
// consecutive iteration boundaries.
func TestConvertRecordsOrigins(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(5), MaxRep: 4, MaxExec: 9, Chords: rng.Intn(4), SelfLoop: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		conv, _, err := Convert(context.Background(), g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatal(err)
		}
		type firing struct {
			actor sdf.ActorID
			copy  int
		}
		of := make(map[sdf.ActorID]firing)
		for a, cs := range conv.Copies {
			if int64(len(cs)) != q[a] {
				t.Fatalf("trial %d: %d copies of actor %d, q = %d", trial, len(cs), a, q[a])
			}
			for i, v := range cs {
				of[v] = firing{sdf.ActorID(a), i}
			}
		}
		if len(conv.Origins) != conv.HSDF.NumChannels() {
			t.Fatalf("trial %d: %d origins for %d channels", trial, len(conv.Origins), conv.HSDF.NumChannels())
		}
		for e, ch := range conv.HSDF.Channels() {
			o := conv.Origins[e]
			c := g.Channel(o.Channel)
			u, v := of[ch.Src], of[ch.Dst]
			if c.Src != u.actor || c.Dst != v.actor || o.Pos/c.Cons != v.copy {
				t.Fatalf("trial %d: channel %d (%v -> %v) keeps position %d of channel %d", trial, e, u, v, o.Pos, o.Channel)
			}
			if last := o.Pos + (ch.Initial-1)*int(q[c.Dst])*c.Cons; ch.Initial > 0 && last >= c.Initial {
				t.Errorf("trial %d: channel %d with %d delays keeps a token past the %d initial tokens", trial, e, ch.Initial, c.Initial)
			}
		}
	}
}
