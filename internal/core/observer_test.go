package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcm"
	"repro/internal/sdf"
	"repro/internal/sim"
)

// TestObserverTracksOutputActor exercises the §6 remark that a dedicated
// output actor's firing times can be tracked through the constructed
// graph: the collector actor obs_<name> must fire, in every iteration of
// the HSDF, exactly when the observed actor's last firing of that
// iteration completes in the original graph.
func TestObserverTracksOutputActor(t *testing.T) {
	g := gen.Figure3(2)
	r, err := SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	rID, _ := g.ActorByName("R")
	opts := DefaultBuildOptions()
	opts.Observe = []Observer{{Name: "R", Times: r.ActorCompletion[rID]}}
	h, stats, err := BuildHSDF("fig3_obs", r, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ObserverActors == 0 {
		t.Fatal("no observer actors created")
	}
	if h.NumActors() != stats.Actors()+stats.ObserverActors {
		t.Errorf("graph has %d actors, stats say %d core + %d observer",
			h.NumActors(), stats.Actors(), stats.ObserverActors)
	}
	obsID, ok := h.ActorByName("obs_R")
	if !ok {
		t.Fatal("collector obs_R missing")
	}

	// The observer is a sink: it must not change the throughput.
	resBase, err := mcm.MaxCycleRatio(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	lam, okEig, err := r.Matrix.Eigenvalue()
	if err != nil || !okEig {
		t.Fatal(err)
	}
	if !resBase.CycleMean.Equal(lam) {
		t.Errorf("observer changed period: %v vs %v", resBase.CycleMean, lam)
	}

	// Simulate both graphs and compare: the end time of R's (only)
	// firing per iteration in the original equals the end time of
	// obs_R's firing in the HSDF, iteration by iteration.
	const iters = 12
	trOrig, err := sim.Run(g, iters)
	if err != nil {
		t.Fatal(err)
	}
	trObs, err := sim.Run(h, iters)
	if err != nil {
		t.Fatal(err)
	}
	rExec := g.Actor(rID).Exec
	for i := 0; i < iters; i++ {
		wantEnd := trOrig.ByActor[rID][i] + rExec
		gotEnd := trObs.ByActor[obsID][i] // exec 0: start == end
		if wantEnd != gotEnd {
			t.Errorf("iteration %d: R completes at %d, obs_R fires at %d", i, wantEnd, gotEnd)
		}
	}
}

func TestObserverWrongLength(t *testing.T) {
	g := gen.Figure3(2)
	r, err := SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBuildOptions()
	opts.Observe = []Observer{{Name: "bad", Times: nil}}
	if _, _, err := BuildHSDF("x", r, opts); err == nil {
		t.Error("short observer vector accepted")
	}
}

func TestObserverOnActorWithMultipleFirings(t *testing.T) {
	// L fires twice per iteration; the observer tracks the LAST firing.
	g := gen.Figure3(2)
	r, err := SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	lID, _ := g.ActorByName("L")
	opts := DefaultBuildOptions()
	opts.Observe = []Observer{{Name: "L", Times: r.ActorCompletion[lID]}}
	h, _, err := BuildHSDF("fig3_obsL", r, opts)
	if err != nil {
		t.Fatal(err)
	}
	obsID, ok := h.ActorByName("obs_L")
	if !ok {
		t.Fatal("collector obs_L missing")
	}
	const iters = 10
	trOrig, err := sim.Run(g, iters)
	if err != nil {
		t.Fatal(err)
	}
	trObs, err := sim.Run(h, iters)
	if err != nil {
		t.Fatal(err)
	}
	lExec := g.Actor(lID).Exec
	for i := 0; i < iters; i++ {
		// Firing 2i+1 is L's last firing of iteration i.
		wantEnd := trOrig.ByActor[lID][2*i+1] + lExec
		gotEnd := trObs.ByActor[obsID][i]
		if wantEnd != gotEnd {
			t.Errorf("iteration %d: L's last firing completes at %d, obs_L fires at %d", i, wantEnd, gotEnd)
		}
	}
}

func TestObserverViaFacadeGraph(t *testing.T) {
	// Observers compose with multirate application-style graphs.
	g := sdf.NewGraph("app")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 2, 2)
	g.MustAddChannel(a, a, 1, 1, 1)
	r, err := SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	bID, _ := g.ActorByName("B")
	opts := DefaultBuildOptions()
	opts.Observe = []Observer{{Name: "B", Times: r.ActorCompletion[bID]}}
	h, _, err := BuildHSDF("app_obs", r, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.ActorByName("obs_B"); !ok {
		t.Error("collector obs_B missing")
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}
