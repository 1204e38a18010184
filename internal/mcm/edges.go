package mcm

import (
	"errors"
	"fmt"

	"repro/internal/maxplus"
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
	// Karp reports that Howard's iteration hit its cap and CycleRatio
	// came from the exact Karp fallback, which finds no cycle: Critical
	// is then empty.
	Karp bool
}

// MaxCycleRatioEdges computes the maximum cycle ratio ΣW/ΣD over all
// directed cycles of an explicit n-node edge list, using the same Howard
// policy iteration as MaxCycleRatio. Delays must be non-negative; a cycle
// of zero total delay yields ErrDeadlock (its ratio would be infinite).
// When Howard's iteration does not converge and every delay is 1 — as
// on a max-plus automaton — the ratio comes from Karp's algorithm
// instead (EdgeResult.Karp).
func MaxCycleRatioEdges(n int, edges []Edge) (EdgeResult, error) {
	if n < 0 {
		return EdgeResult{}, fmt.Errorf("mcm: negative node count %d", n)
	}
	adj := make([][]edge, n)
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return EdgeResult{}, fmt.Errorf("mcm: edge %d->%d outside 0..%d", e.From, e.To, n-1)
		}
		if e.D < 0 {
			return EdgeResult{}, fmt.Errorf("mcm: edge %d->%d has negative delay %d", e.From, e.To, e.D)
		}
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
	res, err := howard(n, adj, alive)
	if errors.Is(err, errNoConvergence) && unitDelays(edges) {
		ratio, err := karpUnit(n, adj, alive)
		if err != nil {
			return EdgeResult{}, err
		}
		return EdgeResult{CycleRatio: ratio, HasCycle: true, Karp: true}, nil
	}
	if err != nil {
		return EdgeResult{}, err
	}
	crit := make([]int, len(res.Critical))
	for i, a := range res.Critical {
		crit[i] = int(a)
	}
	return EdgeResult{CycleRatio: res.CycleMean, Critical: crit, HasCycle: true}, nil
}

func unitDelays(edges []Edge) bool {
	for _, e := range edges {
		if e.D != 1 {
			return false
		}
	}
	return true
}

// karpUnit computes the maximum cycle mean of the alive subgraph of a
// unit-delay edge list exactly, by Karp's theorem over walks that may
// start at any node: with D_k(v) the heaviest k-edge walk ending at v
// (D_0 = 0) and N the alive node count, the maximum is
// max_v min_k (D_N(v) − D_k(v))/(N − k) over finite terms. D_N is
// computed in a first pass and the D_k are recomputed in a second, so
// memory stays linear in the node count. (maxplus's Karp keeps the
// whole (N+1)×N table; the automaton of an admitted SADF model can have
// thousands of nodes.)
func karpUnit(n int, adj [][]edge, alive []bool) (rat.Rat, error) {
	nAlive := 0
	for _, a := range alive {
		if a {
			nAlive++
		}
	}
	prev, cur := make([]maxplus.T, n), make([]maxplus.T, n)
	walks := func(visit func(k int, d []maxplus.T) error) error {
		for v := range prev {
			prev[v] = maxplus.NegInf
			if alive[v] {
				prev[v] = 0
			}
		}
		for k := 0; ; k++ {
			if err := visit(k, prev); err != nil || k == nAlive {
				return err
			}
			for v := range cur {
				cur[v] = maxplus.NegInf
			}
			for u, du := range prev {
				if du.IsNegInf() {
					continue
				}
				for _, e := range adj[u] {
					if !alive[e.to] {
						continue
					}
					s, ok := rat.AddChecked(du.Int(), e.w)
					if !ok {
						return fmt.Errorf("mcm: Karp walk weight overflows int64")
					}
					cur[e.to] = cur[e.to].Max(maxplus.FromInt(s))
				}
			}
			prev, cur = cur, prev
		}
	}
	dN := make([]maxplus.T, n)
	if err := walks(func(k int, d []maxplus.T) error {
		if k == nAlive {
			copy(dN, d)
		}
		return nil
	}); err != nil {
		return rat.Rat{}, err
	}
	lo := make([]rat.Rat, n)
	seen := make([]bool, n)
	err := walks(func(k int, d []maxplus.T) error {
		if k == nAlive {
			return nil
		}
		for v, dk := range d {
			if dk.IsNegInf() || dN[v].IsNegInf() {
				continue
			}
			diff, ok := rat.AddChecked(dN[v].Int(), -dk.Int())
			if !ok {
				return fmt.Errorf("mcm: Karp walk weight overflows int64")
			}
			r, err := rat.New(diff, int64(nAlive-k))
			if err != nil {
				return fmt.Errorf("mcm: %w", err)
			}
			if !seen[v] || r.Cmp(lo[v]) < 0 {
				lo[v], seen[v] = r, true
			}
		}
		return nil
	})
	if err != nil {
		return rat.Rat{}, err
	}
	best, found := rat.Rat{}, false
	for v, ok := range seen {
		if ok && (!found || lo[v].Cmp(best) > 0) {
			best, found = lo[v], true
		}
	}
	if !found {
		return rat.Rat{}, fmt.Errorf("mcm: internal: Karp found no cycle in a cyclic edge list")
	}
	return best, nil
}
