package passes

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/sdfio"
)

// liftAcross lifts v across the one application app with
// Reduction.Lift, the package's only lift.
func liftAcross(t *testing.T, app *Application, v Value) Value {
	t.Helper()
	red := &Reduction{Original: app.Before, Final: app.After, Steps: []*Application{app}, Exact: app.Rule.Exact, scale: app.Scale}
	out, err := red.Lift(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// pruneGraph has two parallel A->B channels with equal rates; the one
// with more initial tokens is redundant (§4.2).
func pruneGraph(t *testing.T) *sdf.Graph {
	t.Helper()
	g := sdf.NewGraph("prune")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	g.MustAddChannel(a, b, 2, 3, 0)
	g.MustAddChannel(a, b, 2, 3, 5)
	g.MustAddChannel(b, a, 3, 2, 6)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPruneRedundantRule(t *testing.T) {
	g := pruneGraph(t)
	app, err := reducePruneRedundant(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app == nil {
		t.Fatal("prune rule did not apply")
	}
	rules := DefaultRules()
	app.Rule = &rules[0]
	if app.After.NumChannels() != 2 {
		t.Fatalf("got %d channels, want 2", app.After.NumChannels())
	}
	if app.Before != g {
		t.Fatal("application lost the pre-step graph")
	}
	step := app.LiftStep()
	if err := step.Check(context.Background(), g); err != nil {
		t.Fatalf("lift step rejected: %v", err)
	}
	v := liftAcross(t, app, Value{Period: rat.MustNew(7, 2)})
	if !v.Period.Equal(rat.MustNew(7, 2)) || v.Bound {
		t.Fatalf("prune lift changed the value: %+v", v)
	}
}

func TestRateGCDRule(t *testing.T) {
	g := sdf.NewGraph("gcd")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 2, 4, 2)
	g.MustAddChannel(b, a, 4, 2, 4)
	app, err := reduceRateGCD(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app == nil {
		t.Fatal("rate-gcd rule did not apply")
	}
	rules := DefaultRules()
	app.Rule = &rules[1]
	c0 := app.After.Channel(0)
	if c0.Prod != 1 || c0.Cons != 2 || c0.Initial != 1 {
		t.Fatalf("channel not normalised: %+v", c0)
	}
	if app.Before != g {
		t.Fatal("application lost the pre-step graph")
	}
	step := app.LiftStep()
	if err := step.Check(context.Background(), g); err != nil {
		t.Fatalf("lift step rejected: %v", err)
	}
	v := liftAcross(t, app, Value{Period: rat.FromInt(5)})
	if !v.Period.Equal(rat.FromInt(5)) {
		t.Fatalf("rate-gcd lift changed the period: %v", v.Period)
	}
}

// deadGraph is a token-bearing two-actor cycle feeding a cycle-free
// tail; the tail actors C and D never constrain the cycle mean.
func deadGraph(t *testing.T) *sdf.Graph {
	t.Helper()
	g := sdf.NewGraph("dead")
	a := g.MustAddActor("A", 4)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 9)
	d := g.MustAddActor("D", 2)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 1)
	g.MustAddChannel(b, c, 2, 1, 0)
	g.MustAddChannel(c, d, 1, 3, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDeadActorRule(t *testing.T) {
	g := deadGraph(t)
	app, err := reduceDeadActor(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app == nil {
		t.Fatal("dead-actor rule did not apply")
	}
	rules := DefaultRules()
	app.Rule = &rules[2]
	if app.After.NumActors() != 2 {
		t.Fatalf("got %d actors, want 2", app.After.NumActors())
	}
	// q = (3,3,6,2) shrinks to (1,1): uniform scale 3.
	if app.Scale != 3 {
		t.Fatalf("got scale %d, want 3", app.Scale)
	}
	if app.Before != g {
		t.Fatal("application lost the pre-step graph")
	}
	step := app.LiftStep()
	if err := step.Check(context.Background(), g); err != nil {
		t.Fatalf("lift step rejected: %v", err)
	}
	v := liftAcross(t, app, Value{Period: rat.FromInt(5)})
	if !v.Period.Equal(rat.FromInt(15)) {
		t.Fatalf("dead-actor lift: got %v, want 15", v.Period)
	}
}

func TestDeadActorRuleDeclinesNonUniformScale(t *testing.T) {
	// Two disjoint cycles joined by a dead path with a rate change: the
	// kept repetition counts shrink by different factors, so the rule
	// must decline.
	g := sdf.NewGraph("nonuniform")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 1)
	e := g.MustAddActor("E", 1)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 0)
	g.MustAddChannel(d, e, 1, 1, 1)
	g.MustAddChannel(e, d, 1, 1, 0)
	g.MustAddChannel(a, c, 3, 2, 0) // dead actor C, q: A,B=2  C=3  D,E=9
	g.MustAddChannel(c, d, 3, 1, 0)
	app, err := reduceDeadActor(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app != nil {
		t.Fatalf("rule applied with non-uniform scale: %+v", app)
	}
}

func TestChainFusionRule(t *testing.T) {
	g := sdf.NewGraph("chain")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 2, 2, 0)
	g.MustAddChannel(b, a, 1, 1, 2)
	app, err := reduceChainFusion(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app == nil {
		t.Fatal("chain-fusion rule did not apply")
	}
	rules := DefaultRules()
	app.Rule = &rules[3]
	if app.After.NumActors() != 1 {
		t.Fatalf("got %d actors, want 1", app.After.NumActors())
	}
	if got := app.After.Actor(0).Exec; got != 7 {
		t.Fatalf("fused exec %d, want 7", got)
	}
	if app.Before != g {
		t.Fatal("application lost the pre-step graph")
	}
	step := app.LiftStep()
	if err := step.Check(context.Background(), g); err != nil {
		t.Fatalf("lift step rejected: %v", err)
	}
	v := liftAcross(t, app, Value{Period: rat.FromInt(7)})
	if !v.Period.Equal(rat.FromInt(7)) {
		t.Fatalf("chain-fusion lift: got %v, want 7", v.Period)
	}
}

// twoChainGraph is one token-bearing cycle through two fusible chains,
// A1→A2→A3 (its first link two parallel channels) and B1→B2, split by
// the bystander C; A1 and A2 both execute for exec.
func twoChainGraph(exec int64) *sdf.Graph {
	g := sdf.NewGraph("two-chains")
	a1 := g.MustAddActor("A1", exec)
	a2 := g.MustAddActor("A2", exec)
	a3 := g.MustAddActor("A3", 1)
	c := g.MustAddActor("C", 4)
	b1 := g.MustAddActor("B1", 5)
	b2 := g.MustAddActor("B2", 1)
	g.MustAddChannel(a1, a2, 1, 1, 0)
	g.MustAddChannel(a1, a2, 2, 2, 0)
	g.MustAddChannel(a2, a3, 1, 1, 0)
	g.MustAddChannel(a3, c, 1, 1, 1)
	g.MustAddChannel(c, b1, 1, 1, 1)
	g.MustAddChannel(b1, b2, 1, 1, 0)
	g.MustAddChannel(b2, a1, 1, 1, 1)
	return g
}

func TestChainFusionFusesEveryChain(t *testing.T) {
	g := twoChainGraph(2)
	app, err := reduceChainFusion(NewFacts(g))
	if err != nil || app == nil {
		t.Fatalf("chain-fusion did not apply: %v", err)
	}
	rules := DefaultRules()
	app.Rule = &rules[3]
	want := [][]sdf.ActorID{{0, 1, 2}, {4, 5}}
	if !reflect.DeepEqual(app.Chains, want) {
		t.Fatalf("chains %v, want %v", app.Chains, want)
	}
	if got := sdfio.TextString(app.After); !strings.Contains(got, "actor A1+A2+A3 5") || !strings.Contains(got, "actor B1+B2 6") {
		t.Fatalf("fused graph:\n%s", got)
	}
	if app.After.NumActors() != 3 || app.After.NumChannels() != 3 {
		t.Fatalf("got %d actors, %d channels, want 3 and 3", app.After.NumActors(), app.After.NumChannels())
	}
	step := app.LiftStep()
	if err := step.Check(context.Background(), g); err != nil {
		t.Fatalf("two-chain step rejected: %v", err)
	}
}

// TestChainFusionSkipsOverflowingChain: a chain whose summed execution
// time overflows int64 stays unfused while the other chain still fuses,
// and the step checks.
func TestChainFusionSkipsOverflowingChain(t *testing.T) {
	g := twoChainGraph(1 << 62)
	app, err := reduceChainFusion(NewFacts(g))
	if err != nil || app == nil {
		t.Fatalf("chain-fusion did not apply: %v", err)
	}
	rules := DefaultRules()
	app.Rule = &rules[3]
	if want := [][]sdf.ActorID{{4, 5}}; !reflect.DeepEqual(app.Chains, want) {
		t.Fatalf("chains %v, want only %v", app.Chains, want)
	}
	if app.After.NumActors() != 5 {
		t.Fatalf("got %d actors, want the 3 unfused A actors, C and B1+B2", app.After.NumActors())
	}
	step := app.LiftStep()
	if err := step.Check(context.Background(), g); err != nil {
		t.Fatalf("step rejected: %v", err)
	}
}

// TestReduceLeavesLinkedZeroTokenCycle: without the precheck, a cycle
// made only of links has no chain head, so the fixpoint returns the
// graph unchanged instead of fusing, looping or panicking.
func TestReduceLeavesLinkedZeroTokenCycle(t *testing.T) {
	g := sdf.NewGraph("linked-cycle")
	for i := 0; i < 5; i++ {
		g.MustAddActor(fmt.Sprintf("a%d", i), int64(i+1))
	}
	for i := 0; i < 5; i++ {
		g.MustAddChannel(sdf.ActorID(i), sdf.ActorID((i+1)%5), 1, 1, 0)
	}
	red, err := Reduce(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Steps) != 0 || red.Final != g {
		t.Fatalf("linked cycle rewritten: %v", red.Trace())
	}
}

func TestChainFusionDeclinesSelfLoops(t *testing.T) {
	// A self-loop on either chain actor sequentialises its firings, and
	// fusing would change the pipeline's overlap; the side conditions
	// must reject the pair.
	g := sdf.NewGraph("chain-self")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 2)
	g.MustAddChannel(a, a, 1, 1, 1)
	app, err := reduceChainFusion(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app != nil {
		t.Fatal("fusion applied despite a self-loop on the chain head")
	}
}

func TestAbstractionRule(t *testing.T) {
	g := sdf.NewGraph("hsdf")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 4)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 1)
	app, err := reduceAbstraction(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app == nil {
		t.Fatal("abstraction rule did not apply")
	}
	all := AllRules()
	app.Rule = &all[len(all)-1]
	if app.After.NumActors() != 1 {
		t.Fatalf("got %d abstract actors, want 1", app.After.NumActors())
	}
	if app.Scale != 2 {
		t.Fatalf("got round length %d, want 2", app.Scale)
	}
	if app.Before != g {
		t.Fatal("application lost the pre-step graph")
	}
	step := app.LiftStep()
	if err := step.Check(context.Background(), g); err != nil {
		t.Fatalf("lift step rejected: %v", err)
	}
	v := liftAcross(t, app, Value{Period: rat.FromInt(4)})
	if !v.Bound {
		t.Fatal("abstraction lift did not mark the value as a bound")
	}
	if !v.Period.Equal(rat.FromInt(8)) {
		t.Fatalf("abstraction lift: got %v, want 8", v.Period)
	}
}

func TestAbstractionRuleSkipsMultirate(t *testing.T) {
	g := sdf.NewGraph("multirate")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 2, 4)
	app, err := reduceAbstraction(NewFacts(g))
	if err != nil {
		t.Fatal(err)
	}
	if app != nil {
		t.Fatal("abstraction applied to a multirate graph")
	}
}

func TestRulesByName(t *testing.T) {
	rules, err := RulesByName([]string{"rate-gcd", "prune-redundant"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "rate-gcd" || rules[1].Name != "prune-redundant" {
		t.Fatalf("wrong rules: %+v", rules)
	}
	if _, err := RulesByName([]string{"nope"}); err == nil {
		t.Fatal("unknown rule accepted")
	}
}

func TestEveryRegisteredRuleIsComplete(t *testing.T) {
	for _, r := range AllRules() {
		if r.Name == "" || r.Doc == "" {
			t.Errorf("rule %+v lacks name or doc", r)
		}
		if r.Reduce == nil {
			t.Errorf("rule %s has a nil reduce entry", r.Name)
		}
	}
}
