package testutil

import "repro/internal/sdf"

// N2001Graph is a four-actor graph with N = 2001 initial tokens and
// Σq = 3003 firings per iteration, inside the default analysis budget
// (2048 tokens, 2^24 firings), with N·Σq past 2^22. Its iteration
// matrix is sparse enough for Howard under the default state budget:
// 2000 tokens on C's self-loop shift by one place per iteration, and
// the token on C→A closes the critical cycle A→D→B→C→A of period
// 1+3+2+5 = 11. No reduction rule applies to it.
func N2001Graph() *sdf.Graph {
	g := sdf.NewGraph("n2001")
	a := g.MustAddActor("A", 1)
	d := g.MustAddActor("D", 3)
	b := g.MustAddActor("B", 2)
	c := g.MustAddActor("C", 5)
	g.MustAddChannel(a, d, 3000, 1, 0)
	g.MustAddChannel(d, b, 1, 3000, 0)
	g.MustAddChannel(b, c, 1, 1, 0)
	g.MustAddChannel(c, a, 1, 1, 1)
	g.MustAddChannel(c, c, 1, 1, 2000)
	return g
}
