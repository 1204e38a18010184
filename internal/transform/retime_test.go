package transform

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcm"
	"repro/internal/sdf"
)

func ring(t *testing.T) *sdf.Graph {
	t.Helper()
	g := sdf.NewGraph("ring")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	c := g.MustAddActor("C", 4)
	g.MustAddChannel(a, b, 1, 1, 2)
	g.MustAddChannel(b, c, 1, 1, 0)
	g.MustAddChannel(c, a, 1, 1, 1)
	return g
}

func TestRetimeMovesTokens(t *testing.T) {
	g := ring(t)
	// Lag B by -1 (one iteration later): a token moves from A->B onto
	// B->C (Leiserson-Saxe: w_r(e) = w(e) + r(dst) - r(src)).
	h, err := Retime(g, []int{0, -1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 1} // (2-1, 0+1, 1)
	for i, c := range h.Channels() {
		if c.Initial != want[i] {
			t.Errorf("channel %d has %d tokens, want %d", i, c.Initial, want[i])
		}
	}
}

func TestRetimeRejectsNegative(t *testing.T) {
	g := ring(t)
	if _, err := Retime(g, []int{0, 0, -1}); err == nil {
		t.Error("illegal retiming accepted (B->C would go negative)")
	}
	if _, err := Retime(g, []int{0, 0}); err == nil {
		t.Error("short lag vector accepted")
	}
	mr := sdf.NewGraph("mr")
	x := mr.MustAddActor("X", 1)
	y := mr.MustAddActor("Y", 1)
	mr.MustAddChannel(x, y, 2, 1, 0)
	if _, err := Retime(mr, []int{0, 0}); err == nil {
		t.Error("multirate graph accepted")
	}
}

// The fundamental retiming theorem: the maximum cycle mean is invariant
// under any legal retiming (cycles keep their token counts).
func TestQuickRetimingPreservesMCM(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		g, err := gen.RandomRegular(rng, gen.RegularOptions{
			Groups: 1 + rng.Intn(3), Copies: 2 + rng.Intn(4), Links: rng.Intn(5), MaxExec: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		before, err := mcm.MaxCycleRatio(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		// Random legal retiming: retry a few random lag vectors.
		var h *sdf.Graph
		for attempt := 0; attempt < 20 && h == nil; attempt++ {
			lag := make([]int, g.NumActors())
			for i := range lag {
				lag[i] = rng.Intn(3)
			}
			if r, err := Retime(g, lag); err == nil {
				h = r
			}
		}
		if h == nil {
			continue // no legal non-trivial retiming found; rare
		}
		after, err := mcm.MaxCycleRatio(context.Background(), h)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if before.HasCycle != after.HasCycle ||
			(before.HasCycle && !before.CycleMean.Equal(after.CycleMean)) {
			t.Errorf("trial %d: retiming changed MCM: %v -> %v", trial, before.CycleMean, after.CycleMean)
		}
	}
}

func TestCanonicalRetiming(t *testing.T) {
	g := ring(t)
	a, _ := g.ActorByName("A")
	h, lag, err := CanonicalRetiming(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if lag[a] != 0 {
		t.Errorf("anchor lag = %d, want 0", lag[a])
	}
	// Invariance of the period.
	before, err := mcm.MaxCycleRatio(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	after, err := mcm.MaxCycleRatio(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !before.CycleMean.Equal(after.CycleMean) {
		t.Errorf("MCM changed: %v -> %v", before.CycleMean, after.CycleMean)
	}
	// Tightness: every non-anchor actor has a token-free outgoing channel.
	for v := sdf.ActorID(0); int(v) < h.NumActors(); v++ {
		if v == a {
			continue
		}
		tight := false
		for _, c := range h.Channels() {
			if c.Src == v && c.Initial == 0 {
				tight = true
			}
		}
		if !tight {
			t.Errorf("actor %s has no token-free outgoing channel:\n%s", h.Actor(v).Name, h)
		}
	}
}

func TestCanonicalRetimingErrors(t *testing.T) {
	g := ring(t)
	if _, _, err := CanonicalRetiming(g, sdf.ActorID(9)); err == nil {
		t.Error("bad anchor accepted")
	}
	pipe := sdf.NewGraph("pipe")
	x := pipe.MustAddActor("X", 1)
	y := pipe.MustAddActor("Y", 1)
	pipe.MustAddChannel(x, y, 1, 1, 0)
	if _, _, err := CanonicalRetiming(pipe, x); err == nil {
		t.Error("non-strongly-connected graph accepted")
	}
}

// Property: canonical retiming is canonical — retiming any legal variant
// of a graph back to the same anchor yields identical token placements.
func TestQuickCanonicalRetimingIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		g, err := gen.RandomRegular(rng, gen.RegularOptions{
			Groups: 1 + rng.Intn(2), Copies: 2 + rng.Intn(3), Links: 1 + rng.Intn(3), MaxExec: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsStronglyConnected() {
			continue
		}
		canon1, _, err := CanonicalRetiming(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Perturb with a random legal retiming, then canonicalise again.
		var variant *sdf.Graph
		for attempt := 0; attempt < 20 && variant == nil; attempt++ {
			lag := make([]int, g.NumActors())
			for i := range lag {
				lag[i] = rng.Intn(2)
			}
			if r, err := Retime(g, lag); err == nil {
				variant = r
			}
		}
		if variant == nil {
			continue
		}
		canon2, _, err := CanonicalRetiming(variant, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range canon1.Channels() {
			c1 := canon1.Channel(sdf.ChannelID(i))
			c2 := canon2.Channel(sdf.ChannelID(i))
			if c1.Initial != c2.Initial {
				t.Errorf("trial %d: canonical forms differ on channel %d: %d vs %d",
					trial, i, c1.Initial, c2.Initial)
				break
			}
		}
	}
}
