package passes

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/sdfio"
)

// layeredGraph exercises several rules in one fixpoint: a token-bearing
// core cycle with doubled rates (rate-gcd), a redundant parallel
// channel (prune), a fusible sequential stage (chain-fusion) and a
// cycle-free periphery (dead-actor).
func layeredGraph(t *testing.T) *sdf.Graph {
	t.Helper()
	g := sdf.NewGraph("layered")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 7)
	g.MustAddChannel(a, b, 2, 2, 0) // fusible chain A -> B
	g.MustAddChannel(b, c, 2, 4, 0) // rate-gcd: /2
	g.MustAddChannel(c, a, 2, 1, 2) // cycle back
	g.MustAddChannel(c, a, 2, 1, 8) // redundant parallel channel
	g.MustAddChannel(c, d, 1, 1, 0) // dead periphery
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReduceFixpoint(t *testing.T) {
	g := layeredGraph(t)
	red, err := Reduce(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Steps) == 0 {
		t.Fatal("no rule applied")
	}
	if !red.Exact {
		t.Fatal("default rules produced an inexact reduction")
	}
	if red.Final.NumActors() >= g.NumActors() && red.Final.NumChannels() >= g.NumChannels() {
		t.Fatalf("reduction did not shrink the graph: %s", sdfio.TextString(red.Final))
	}
	// Every step must check as a certificate step against its pre-graph.
	cur := g
	for i, s := range red.Steps {
		step := s.LiftStep()
		if err := step.Check(context.Background(), cur); err != nil {
			t.Fatalf("step %d (%s) rejected: %v", i, s.Rule.Name, err)
		}
		cur = s.After
	}
	if cur != red.Final {
		t.Fatal("step chain does not end at the final graph")
	}
	// At fixpoint no rule applies to the final graph.
	again, err := Reduce(context.Background(), red.Final, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Steps) != 0 {
		t.Fatalf("final graph reduced further: %v", again.Trace())
	}
}

func TestReduceDeterminism(t *testing.T) {
	g := layeredGraph(t)
	r1, err := Reduce(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Reduce(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Trace(), r2.Trace()) {
		t.Fatalf("traces differ:\n%v\n%v", r1.Trace(), r2.Trace())
	}
	if sdfio.TextString(r1.Final) != sdfio.TextString(r2.Final) {
		t.Fatal("final graphs differ")
	}
	if r1.Scale() != r2.Scale() {
		t.Fatalf("scales differ: %d vs %d", r1.Scale(), r2.Scale())
	}
	for i := range r1.Steps {
		s1, s2 := r1.Steps[i].LiftStep(), r2.Steps[i].LiftStep()
		if s1.Rule != s2.Rule || s1.Scale != s2.Scale ||
			!reflect.DeepEqual(s1.ActorMap, s2.ActorMap) ||
			!reflect.DeepEqual(s1.QBefore, s2.QBefore) ||
			!reflect.DeepEqual(s1.QAfter, s2.QAfter) ||
			sdfio.TextString(s1.Reduced) != sdfio.TextString(s2.Reduced) {
			t.Fatalf("step %d differs between runs", i)
		}
	}
}

func TestReduceInconsistentGraph(t *testing.T) {
	g := sdf.NewGraph("bad")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 0)
	red, err := Reduce(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Steps) != 0 || red.Final != g {
		t.Fatal("inconsistent graph was rewritten")
	}
}

func TestReduceHonoursDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Reduce(ctx, layeredGraph(t), Options{})
	if err == nil {
		t.Fatal("expired deadline did not stop the fixpoint")
	}
}

func TestReduceObservability(t *testing.T) {
	reg := obs.New()
	ctx := obs.WithRegistry(context.Background(), reg)
	red, err := Reduce(ctx, layeredGraph(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, s := range red.Steps {
		total += reg.Counter(obs.MetricReduceSteps, "rule", s.Rule.Name).Value()
		_ = s
	}
	if total < int64(len(red.Steps)) {
		t.Fatalf("reduce step counters undercount: %d < %d", total, len(red.Steps))
	}
}

func TestReduceMaxStepsBackstop(t *testing.T) {
	red, err := Reduce(context.Background(), layeredGraph(t), Options{MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Steps) != 1 {
		t.Fatalf("cap ignored: %d steps", len(red.Steps))
	}
}

func TestReductionFactsReused(t *testing.T) {
	red, err := Reduce(context.Background(), layeredGraph(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if red.Facts() == nil || red.Facts().Graph() != red.Final {
		t.Fatal("reduction facts not bound to the final graph")
	}
	if !red.Facts().Consistent() {
		t.Fatal("reduced graph inconsistent")
	}
}

// TestReduceStartsFromCallerFacts: the fixpoint runs on the caller's
// fact table, so with no step it hands that very table back, analyses
// already computed included.
func TestReduceStartsFromCallerFacts(t *testing.T) {
	g := sdf.NewGraph("irreducible")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 1)
	f := NewFacts(g)
	price := f.Cost()
	red, err := f.Reduce(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Steps) != 0 || red.Facts() != f {
		t.Fatalf("no-step fixpoint did not hand back the caller's table: %v", red.Trace())
	}
	if red.Facts().Have()&FactCost == 0 || red.Facts().Cost() != price {
		t.Fatal("the caller's computed price was not kept")
	}
}
