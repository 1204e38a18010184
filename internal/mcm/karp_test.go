package mcm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rat"
)

// noWalk marks a node no k-edge walk ends at (−∞ in max-plus terms); it
// lies far below any walk weight of the test instances.
const noWalk = int64(-1) << 62

// karpUnit is the test-only Karp reference for unit-delay edge lists: it
// computes the maximum cycle mean of the alive subgraph exactly, by
// Karp's theorem over walks that may start at any node: with D_k(v) the
// heaviest k-edge walk ending at v (D_0 = 0) and N the alive node count,
// the maximum is max_v min_k (D_N(v) − D_k(v))/(N − k) over finite
// terms. D_N is computed in a first pass and the D_k are recomputed in a
// second, so memory stays linear in the node count.
func karpUnit(n int, adj [][]edge, alive []bool) (rat.Rat, error) {
	nAlive := 0
	for _, a := range alive {
		if a {
			nAlive++
		}
	}
	prev, cur := make([]int64, n), make([]int64, n)
	walks := func(visit func(k int, d []int64) error) error {
		for v := range prev {
			prev[v] = noWalk
			if alive[v] {
				prev[v] = 0
			}
		}
		for k := 0; ; k++ {
			if err := visit(k, prev); err != nil || k == nAlive {
				return err
			}
			for v := range cur {
				cur[v] = noWalk
			}
			for u, du := range prev {
				if du == noWalk {
					continue
				}
				for _, e := range adj[u] {
					if !alive[e.to] {
						continue
					}
					s, ok := rat.AddChecked(du, e.w)
					if !ok {
						return fmt.Errorf("mcm: Karp walk weight overflows int64")
					}
					cur[e.to] = max(cur[e.to], s)
				}
			}
			prev, cur = cur, prev
		}
	}
	dN := make([]int64, n)
	if err := walks(func(k int, d []int64) error {
		if k == nAlive {
			copy(dN, d)
		}
		return nil
	}); err != nil {
		return rat.Rat{}, err
	}
	lo := make([]rat.Rat, n)
	seen := make([]bool, n)
	err := walks(func(k int, d []int64) error {
		if k == nAlive {
			return nil
		}
		for v, dk := range d {
			if dk == noWalk || dN[v] == noWalk {
				continue
			}
			diff, ok := rat.AddChecked(dN[v], -dk)
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

// TestKarpMatchesHoward: on seeded random unit-delay edge lists (the
// shape of a max-plus automaton) Karp's algorithm finds exactly the
// ratio Howard's iteration converges to.
func TestKarpMatchesHoward(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		var edges []Edge
		for v := 0; v < n; v++ {
			for e := rng.Intn(4); e > 0; e-- {
				edges = append(edges, Edge{From: v, To: rng.Intn(n), W: rng.Int63n(50), D: 1})
			}
		}
		adj := buildAdj(n, edges)
		alive := trimToCyclic(n, adj)
		anyAlive := false
		for _, a := range alive {
			anyAlive = anyAlive || a
		}
		if !anyAlive {
			continue
		}
		want, err := howard(context.Background(), n, adj, alive)
		if err != nil {
			t.Fatalf("trial %d: howard: %v", trial, err)
		}
		got, err := karpUnit(n, adj, alive)
		if err != nil {
			t.Fatalf("trial %d: karp: %v", trial, err)
		}
		if !got.Equal(want.CycleRatio) {
			t.Errorf("trial %d (%d nodes, %d edges): karp %v, howard %v", trial, n, len(edges), got, want.CycleRatio)
		}
	}
}
