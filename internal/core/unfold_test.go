package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcm"
	"repro/internal/sdf"
)

func TestUnfoldStructure(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 2)
	h, err := Unfold(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumActors() != 6 {
		t.Errorf("unfolded actors = %d, want 6", h.NumActors())
	}
	if h.NumChannels() != 6 {
		t.Errorf("unfolded channels = %d, want 6", h.NumChannels())
	}
	// Total token count is preserved by unfolding.
	if h.TotalInitialTokens() != g.TotalInitialTokens() {
		t.Errorf("unfolded tokens = %d, want %d", h.TotalInitialTokens(), g.TotalInitialTokens())
	}
	// Channel A_i -> B_i with no tokens (d = 0: j = i, d' = 0).
	for i := 0; i < 3; i++ {
		ai, ok1 := h.ActorByName(UnfoldedName("A", i))
		bi, ok2 := h.ActorByName(UnfoldedName("B", i))
		if !ok1 || !ok2 {
			t.Fatalf("missing unfolded actors for i=%d", i)
		}
		found := false
		for _, c := range h.Channels() {
			if c.Src == ai && c.Dst == bi && c.Initial == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("missing channel A_u%d -> B_u%d with 0 tokens", i, i)
		}
	}
	// Channel B -> A with d = 2: from B_i to A_{(i+2) mod 3}; d' = 0 for
	// i = 0 and 1 for i ∈ {1, 2} (wrap).
	wantDelay := map[[2]int]int{{0, 2}: 0, {1, 0}: 1, {2, 1}: 1}
	for key, want := range wantDelay {
		bi, _ := h.ActorByName(UnfoldedName("B", key[0]))
		aj, _ := h.ActorByName(UnfoldedName("A", key[1]))
		found := false
		for _, c := range h.Channels() {
			if c.Src == bi && c.Dst == aj {
				if c.Initial != want {
					t.Errorf("B_u%d -> A_u%d has %d tokens, want %d", key[0], key[1], c.Initial, want)
				}
				found = true
			}
		}
		if !found {
			t.Errorf("missing channel B_u%d -> A_u%d", key[0], key[1])
		}
	}
}

// Proposition 2: the N-fold unfolding has throughput τ/N, i.e. its
// iteration period is N times the original's.
func TestUnfoldProposition2(t *testing.T) {
	g := gen.Figure2()
	orig, err := mcm.MaxCycleRatio(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		h, err := Unfold(g, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mcm.MaxCycleRatio(context.Background(), h)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := orig.CycleMean.MulInt(int64(n))
		if err != nil {
			t.Fatal(err)
		}
		if !res.CycleMean.Equal(want) {
			t.Errorf("n=%d: unfolded period = %v, want %v", n, res.CycleMean, want)
		}
	}
}

func TestUnfoldErrors(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 2, 1, 0)
	if _, err := Unfold(g, 2); err == nil {
		t.Error("Unfold accepted multirate graph")
	}
	h := sdf.NewGraph("h")
	c := h.MustAddActor("C", 1)
	h.MustAddChannel(c, c, 1, 1, 1)
	if _, err := Unfold(h, 0); err == nil {
		t.Error("Unfold accepted N=0")
	}
}

func TestUnfoldN1Identity(t *testing.T) {
	g := gen.Figure2()
	h, err := Unfold(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumActors() != g.NumActors() || h.NumChannels() != g.NumChannels() {
		t.Errorf("1-fold unfolding changed sizes: %d/%d vs %d/%d",
			h.NumActors(), h.NumChannels(), g.NumActors(), g.NumChannels())
	}
	for i, c := range h.Channels() {
		if c.Initial != g.Channel(sdf.ChannelID(i)).Initial {
			t.Errorf("channel %d delay changed: %d vs %d", i, c.Initial, g.Channel(sdf.ChannelID(i)).Initial)
		}
	}
}

func TestCheckDominatesDirections(t *testing.T) {
	fast := sdf.NewGraph("fast")
	a := fast.MustAddActor("A", 2)
	fast.MustAddChannel(a, a, 1, 1, 2)

	slow := sdf.NewGraph("slow")
	sa := slow.MustAddActor("A", 3)
	slow.MustAddChannel(sa, sa, 1, 1, 1)
	slow.MustAddActor("EXTRA", 99)

	// slow has longer exec, fewer tokens, extra actors: dominated.
	if err := CheckDominates(fast, slow, nil); err != nil {
		t.Errorf("valid domination rejected: %v", err)
	}
	// The reverse direction must fail (exec 2 < 3 requirement broken).
	if err := CheckDominates(slow, fast, nil); err == nil {
		t.Error("reverse domination accepted")
	}

	// More tokens in slow than fast breaks the channel condition.
	slow2 := sdf.NewGraph("slow2")
	s2 := slow2.MustAddActor("A", 3)
	slow2.MustAddChannel(s2, s2, 1, 1, 3)
	if err := CheckDominates(fast, slow2, nil); err == nil {
		t.Error("domination with more tokens accepted")
	}

	// Missing actor.
	if err := CheckDominates(fast, sdf.NewGraph("empty"), nil); err == nil {
		t.Error("domination with missing actor accepted")
	}

	// Rename mapping.
	slow3 := sdf.NewGraph("slow3")
	s3 := slow3.MustAddActor("X", 2)
	slow3.MustAddChannel(s3, s3, 1, 1, 2)
	if err := CheckDominates(fast, slow3, map[string]string{"A": "X"}); err != nil {
		t.Errorf("renamed domination rejected: %v", err)
	}
}

func TestInferByName(t *testing.T) {
	g, err := gen.Figure1(6)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := InferByName(g)
	if err != nil {
		t.Fatal(err)
	}
	a3, _ := g.ActorByName("A3")
	if ab.Alpha[a3] != "A" || ab.Index[a3] != 2 {
		t.Errorf("A3 mapped to %s index %d, want A index 2", ab.Alpha[a3], ab.Index[a3])
	}
	b1, _ := g.ActorByName("B1")
	if ab.Alpha[b1] != "B" || ab.Index[b1] != 0 {
		t.Errorf("B1 mapped to %s index %d, want B index 0", ab.Alpha[b1], ab.Index[b1])
	}
}

func TestInferByNameRejectsDisorder(t *testing.T) {
	// Zero-delay channel A2 -> A1 runs against the suffix order.
	g := sdf.NewGraph("t")
	a1 := g.MustAddActor("A1", 1)
	a2 := g.MustAddActor("A2", 1)
	g.MustAddChannel(a2, a1, 1, 1, 0)
	g.MustAddChannel(a1, a2, 1, 1, 1)
	if _, err := InferByName(g); err == nil {
		t.Error("InferByName accepted disordered graph")
	}
	// InferByLevels repairs it: A2 at level 0, A1 at level 1.
	ab, err := InferByLevels(g, map[string]string{"A1": "A", "A2": "A"})
	if err != nil {
		t.Fatal(err)
	}
	if ab.Index[a2] != 0 || ab.Index[a1] != 1 {
		t.Errorf("levels = %v", ab.Index)
	}
}

func TestInferByLevelsRejectsZeroDelayCycle(t *testing.T) {
	g := sdf.NewGraph("t")
	a := g.MustAddActor("X", 1)
	b := g.MustAddActor("Y", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 0)
	if _, err := InferByLevels(g, nil); err == nil {
		t.Error("InferByLevels accepted zero-delay cycle")
	}
}

func TestInferByLevelsClash(t *testing.T) {
	// Two parallel actors in one group land on the same level.
	g := sdf.NewGraph("t")
	x := g.MustAddActor("X", 1)
	y := g.MustAddActor("Y", 1)
	g.MustAddChannel(x, x, 1, 1, 1)
	g.MustAddChannel(y, y, 1, 1, 1)
	if _, err := InferByLevels(g, map[string]string{"X": "G", "Y": "G"}); err == nil {
		t.Error("InferByLevels accepted level clash within a group")
	}
}

func TestSplitNumericSuffix(t *testing.T) {
	cases := []struct {
		in     string
		prefix string
		suffix int
		ok     bool
	}{
		{"A12", "A", 12, true},
		{"B1", "B", 1, true},
		{"CMP1584", "CMP", 1584, true},
		{"NoDigits", "NoDigits", 0, false},
		{"123", "123", 0, false}, // purely numeric names stay whole
	}
	for _, c := range cases {
		p, s, ok := splitNumericSuffix(c.in)
		if p != c.prefix || s != c.suffix || ok != c.ok {
			t.Errorf("splitNumericSuffix(%q) = %q, %d, %v; want %q, %d, %v",
				c.in, p, s, ok, c.prefix, c.suffix, c.ok)
		}
	}
}
