package mcm

import (
	"context"
	"fmt"

	"repro/internal/rat"
)

// Edge is one weighted edge of an explicit cycle-ratio instance: a
// directed arc From→To carrying weight W (the max-plus "gain" along the
// arc) and delay D (the number of tokens / automaton steps it consumes).
// The scenario-aware analysis in internal/sadf builds its max-plus
// automaton as such an edge list and feeds it here.
type Edge struct {
	From, To int
	W, D     int64
}

// EdgeResult reports the maximum cycle ratio of an explicit edge list and
// one critical cycle as node indices.
type EdgeResult struct {
	// CycleRatio is the maximum over directed cycles of ΣW/ΣD.
	CycleRatio rat.Rat
	// Critical lists the nodes of one cycle attaining the maximum, in
	// order (first node repeated implicitly).
	Critical []int
	// HasCycle is false when the edge list is acyclic; CycleRatio and
	// Critical are then meaningless.
	HasCycle bool
}

// MaxCycleRatioEdges computes the maximum cycle ratio ΣW/ΣD over all
// directed cycles of an explicit n-node edge list, using the same Howard
// policy iteration as MaxCycleRatio. Delays must be non-negative; a cycle
// of zero total delay yields ErrDeadlock (its ratio would be infinite).
// A done ctx stops Howard's iteration at its next round.
func MaxCycleRatioEdges(ctx context.Context, n int, edges []Edge) (EdgeResult, error) {
	if n < 0 {
		return EdgeResult{}, fmt.Errorf("mcm: negative node count %d", n)
	}
	// One backing array, cut per node; each node keeps its edges in
	// input order, which fixes Howard's initial policy.
	deg := make([]int, n)
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return EdgeResult{}, fmt.Errorf("mcm: edge %d->%d outside 0..%d", e.From, e.To, n-1)
		}
		if e.D < 0 {
			return EdgeResult{}, fmt.Errorf("mcm: edge %d->%d has negative delay %d", e.From, e.To, e.D)
		}
		deg[e.From]++
	}
	backing := make([]edge, len(edges))
	adj := make([][]edge, n)
	for v, off := 0, 0; v < n; v++ {
		adj[v] = backing[off : off : off+deg[v]]
		off += deg[v]
	}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], edge{to: e.To, w: e.W, d: e.D})
	}

	if hasZeroTokenCycle(n, adj) {
		return EdgeResult{}, ErrDeadlock
	}

	alive := trimToCyclic(n, adj)
	anyAlive := false
	for _, a := range alive {
		if a {
			anyAlive = true
			break
		}
	}
	if !anyAlive {
		return EdgeResult{HasCycle: false}, nil
	}
	return howard(ctx, n, adj, alive)
}
