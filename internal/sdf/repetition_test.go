package sdf

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/rat"
)

// twoActorGraph builds A -(p,c)-> B.
func twoActorGraph(p, c int) *Graph {
	g := NewGraph("t")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, p, c, 0)
	return g
}

func TestRepetitionVectorSimple(t *testing.T) {
	g := twoActorGraph(2, 3)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 3 || q[1] != 2 {
		t.Errorf("q = %v, want [3 2]", q)
	}
}

func TestRepetitionVectorHSDF(t *testing.T) {
	g := NewGraph("t")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, c, 1, 1, 0)
	g.MustAddChannel(c, a, 1, 1, 1)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range q {
		if v != 1 {
			t.Errorf("q[%d] = %d, want 1", i, v)
		}
	}
}

func TestRepetitionVectorFigure3(t *testing.T) {
	// The paper's Figure 3 graph: left actor fires twice, right once.
	// Left produces 1 per firing, right consumes 2.
	g := NewGraph("fig3")
	l := g.MustAddActor("L", 3)
	r := g.MustAddActor("R", 2)
	g.MustAddChannel(l, r, 1, 2, 0)
	g.MustAddChannel(r, l, 2, 1, 2)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[l] != 2 || q[r] != 1 {
		t.Errorf("q = %v, want [2 1]", q)
	}
	sum, err := g.IterationLength()
	if err != nil || sum != 3 {
		t.Errorf("IterationLength = %d, %v; want 3", sum, err)
	}
}

func TestRepetitionVectorCD2DAT(t *testing.T) {
	// Classic CD (44.1 kHz) to DAT (48 kHz) sample rate converter chain.
	// The iteration length 612 is the Table-1 value for the traditional
	// conversion of the sample rate converter.
	g := NewGraph("cd2dat")
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
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{147, 147, 98, 28, 32, 160}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v, want %v", q, want)
		}
	}
	sum, err := g.IterationLength()
	if err != nil || sum != 612 {
		t.Errorf("IterationLength = %d, %v; want 612", sum, err)
	}
}

func TestInconsistentGraph(t *testing.T) {
	g := NewGraph("bad")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(a, b, 2, 1, 0) // conflicting balance for same pair
	_, err := g.RepetitionVector()
	if !errors.Is(err, ErrInconsistent) {
		t.Errorf("err = %v, want ErrInconsistent", err)
	}
	if g.IsConsistent() {
		t.Error("IsConsistent true for inconsistent graph")
	}
}

func TestInconsistentCycle(t *testing.T) {
	// Cycle whose rate product != 1: A -(2,1)-> B -(2,1)-> C -(1,1)-> A.
	g := NewGraph("bad")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, c, 2, 1, 0)
	g.MustAddChannel(c, a, 1, 1, 0)
	if _, err := g.RepetitionVector(); !errors.Is(err, ErrInconsistent) {
		t.Errorf("err = %v, want ErrInconsistent", err)
	}
}

// TestInconsistentErrorListsEveryConflict: the solver runs on past the
// first conflict, so its error prints that one and lists every
// conflicting channel of every component. An overflow met before any
// conflict stays the overflow error; one met after is listed apart from
// the conflicts.
func TestInconsistentErrorListsEveryConflict(t *testing.T) {
	g := NewGraph("bad")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(a, b, 2, 1, 0) // conflicts with channel 0
	g.MustAddChannel(c, d, 1, 1, 0)
	g.MustAddChannel(d, d, 2, 3, 1) // self-loop with prod != cons
	_, err := g.RepetitionVector()
	var inc *InconsistentError
	if !errors.As(err, &inc) || !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want *InconsistentError", err)
	}
	if want := "sdf: channel A -> B (prod=2 cons=1) violates balance: sdf: graph is not consistent"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if want := []ChannelID{1, 3}; !slices.Equal(inc.Conflicts, want) {
		t.Errorf("conflicts = %v, want %v", inc.Conflicts, want)
	}

	// Rates 2^62 twice along a chain overflow int64.
	chain := func(g *Graph) {
		x := g.MustAddActor("X", 1)
		y := g.MustAddActor("Y", 1)
		z := g.MustAddActor("Z", 1)
		g.MustAddChannel(x, y, 1<<62, 1, 0)
		g.MustAddChannel(y, z, 1<<62, 1, 0)
	}
	conflict := func(g *Graph) {
		p := g.MustAddActor("P", 1)
		g.MustAddChannel(p, p, 1, 2, 1)
	}
	first := NewGraph("overflow-first")
	chain(first)
	conflict(first)
	if _, err := first.RepetitionVector(); !errors.Is(err, rat.ErrOverflow) || errors.Is(err, ErrInconsistent) {
		t.Errorf("overflow before the conflict: err = %v, want the overflow", err)
	}
	after := NewGraph("conflict-first")
	conflict(after)
	chain(after)
	_, err = after.RepetitionVector()
	if !errors.As(err, &inc) || !slices.Equal(inc.Conflicts, []ChannelID{0}) || !slices.Equal(inc.Overflows, []ChannelID{2}) {
		t.Errorf("overflow after the conflict: err = %v, want conflicts [0] and overflows [2]", err)
	}
}

func TestRepetitionVectorDisconnected(t *testing.T) {
	// Two components, each normalised independently.
	g := NewGraph("two")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 1)
	g.MustAddChannel(a, b, 2, 4, 0) // q(A)=2, q(B)=1
	g.MustAddChannel(c, d, 3, 1, 0) // q(C)=1, q(D)=3
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 1, 1, 3}
	for i := range want {
		if q[i] != want[i] {
			t.Fatalf("q = %v, want %v", q, want)
		}
	}
}

func TestRepetitionVectorIsolatedActor(t *testing.T) {
	g := NewGraph("iso")
	g.MustAddActor("A", 1)
	q, err := g.RepetitionVector()
	if err != nil || len(q) != 1 || q[0] != 1 {
		t.Errorf("q = %v, %v; want [1]", q, err)
	}
}

func TestRepetitionVectorEmpty(t *testing.T) {
	g := NewGraph("e")
	q, err := g.RepetitionVector()
	if err != nil || q != nil {
		t.Errorf("q = %v, %v; want nil, nil", q, err)
	}
}

func TestRepetitionVectorMinimality(t *testing.T) {
	// Rates with a common factor must still give the minimal vector.
	g := twoActorGraph(4, 6) // balance 4q(A) = 6q(B) -> minimal [3 2]
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[0] != 3 || q[1] != 2 {
		t.Errorf("q = %v, want [3 2]", q)
	}
}

// The balance property must hold for every channel of the returned vector.
func checkBalance(t *testing.T, g *Graph, q []int64) {
	t.Helper()
	for _, c := range g.Channels() {
		if q[c.Src]*int64(c.Prod) != q[c.Dst]*int64(c.Cons) {
			t.Errorf("channel %v unbalanced: %d*%d != %d*%d", c, q[c.Src], c.Prod, q[c.Dst], c.Cons)
		}
	}
}

func TestRepetitionVectorBalances(t *testing.T) {
	g := NewGraph("multi")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	// Cycle rate product (3/2)(5/3)(2/5) = 1, so the graph is consistent.
	g.MustAddChannel(a, b, 3, 2, 0)
	g.MustAddChannel(b, c, 5, 3, 0)
	g.MustAddChannel(c, a, 2, 5, 4)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	checkBalance(t, g, q)
}
