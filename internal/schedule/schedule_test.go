package schedule_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/schedule"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// validate checks sched through the independent schedule certificate:
// no buffer underflow, the initial marking restored and minimal firing
// counts. The test package is external because verify depends on this
// package through core.
func validate(g *sdf.Graph, sched []sdf.ActorID) error {
	return (&verify.ScheduleCert{Schedule: sched}).Check(context.Background(), g)
}

func chainGraph() *sdf.Graph {
	g := sdf.NewGraph("chain")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	g.MustAddChannel(a, b, 2, 3, 0)
	g.MustAddChannel(b, c, 1, 2, 0)
	return g
}

func TestSequentialChain(t *testing.T) {
	g := chainGraph()
	sched, err := schedule.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	// q = [3, 2, 1], iteration length 6.
	if len(sched) != 6 {
		t.Fatalf("schedule length %d, want 6", len(sched))
	}
	if err := validate(g, sched); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestSequentialCycle(t *testing.T) {
	g := sdf.NewGraph("cycle")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 1)
	sched, err := schedule.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(g, sched); err != nil {
		t.Errorf("validate: %v", err)
	}
	if sched[0] != a {
		t.Errorf("schedule starts with %v, want A (only A is initially enabled)", sched[0])
	}
}

func TestSequentialDeadlock(t *testing.T) {
	g := sdf.NewGraph("dead")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 0) // no tokens anywhere on the cycle
	_, err := schedule.Sequential(g)
	if !errors.Is(err, schedule.ErrDeadlock) {
		t.Errorf("err = %v, want schedule.ErrDeadlock", err)
	}
	if schedule.IsLive(g) {
		t.Error("IsLive true for deadlocked graph")
	}
}

func TestSequentialMultirateDeadlock(t *testing.T) {
	// Cycle needs 3 tokens to get going but only has 2.
	g := sdf.NewGraph("dead2")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 3, 0)
	g.MustAddChannel(b, a, 3, 1, 2)
	if schedule.IsLive(g) {
		t.Error("IsLive true for under-tokened cycle")
	}
	if err := g.SetInitial(sdf.ChannelID(1), 3); err != nil {
		t.Fatal(err)
	}
	if !schedule.IsLive(g) {
		t.Error("IsLive false once cycle has enough tokens")
	}
}

func TestSequentialInconsistent(t *testing.T) {
	g := sdf.NewGraph("bad")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(a, b, 2, 1, 0)
	if _, err := schedule.Sequential(g); !errors.Is(err, sdf.ErrInconsistent) {
		t.Errorf("err = %v, want ErrInconsistent", err)
	}
}

func TestSequentialSelfLoop(t *testing.T) {
	g := sdf.NewGraph("self")
	a := g.MustAddActor("A", 1)
	g.MustAddChannel(a, a, 1, 1, 1)
	sched, err := schedule.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 1 || sched[0] != a {
		t.Errorf("schedule = %v", sched)
	}
	if err := validate(g, sched); err != nil {
		t.Error(err)
	}
}

func TestSequentialSelfLoopNoToken(t *testing.T) {
	g := sdf.NewGraph("self0")
	a := g.MustAddActor("A", 1)
	g.MustAddChannel(a, a, 1, 1, 0)
	if _, err := schedule.Sequential(g); !errors.Is(err, schedule.ErrDeadlock) {
		t.Errorf("err = %v, want schedule.ErrDeadlock", err)
	}
}

func TestSequentialEmpty(t *testing.T) {
	sched, err := schedule.Sequential(sdf.NewGraph("e"))
	if err != nil || sched != nil {
		t.Errorf("schedule.Sequential(empty) = %v, %v", sched, err)
	}
}

func TestSequentialCD2DAT(t *testing.T) {
	g := sdf.NewGraph("cd2dat")
	a := g.MustAddActor("a", 1)
	b := g.MustAddActor("b", 1)
	c := g.MustAddActor("c", 1)
	d := g.MustAddActor("d", 1)
	e := g.MustAddActor("e", 1)
	f := g.MustAddActor("f", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, c, 2, 3, 0)
	g.MustAddChannel(c, d, 2, 7, 0)
	g.MustAddChannel(d, e, 8, 7, 0)
	g.MustAddChannel(e, f, 5, 1, 0)
	sched, err := schedule.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 612 {
		t.Errorf("schedule length %d, want 612", len(sched))
	}
	if err := validate(g, sched); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	g := sdf.NewGraph("cycle")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 1)

	// Wrong order: B has no token to consume first.
	if err := validate(g, []sdf.ActorID{b, a}); err == nil {
		t.Error("validate accepted schedule that underflows")
	}
	// Wrong counts.
	if err := validate(g, []sdf.ActorID{a}); err == nil {
		t.Error("validate accepted incomplete schedule")
	}
	if err := validate(g, []sdf.ActorID{a, b, a, b}); err == nil {
		t.Error("validate accepted doubled schedule")
	}
	// Out-of-range actor.
	if err := validate(g, []sdf.ActorID{a, sdf.ActorID(7)}); err == nil {
		t.Error("validate accepted out-of-range actor")
	}
	// Correct.
	if err := validate(g, []sdf.ActorID{a, b}); err != nil {
		t.Errorf("validate rejected correct schedule: %v", err)
	}
}
