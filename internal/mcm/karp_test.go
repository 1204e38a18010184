package mcm

import (
	"math/rand"
	"testing"
)

// TestKarpMatchesHoward: on seeded random unit-delay edge lists (the
// shape of a max-plus automaton) the Karp fallback finds exactly the
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
		adj := make([][]edge, n)
		for _, e := range edges {
			adj[e.From] = append(adj[e.From], edge{to: e.To, w: e.W, d: e.D})
		}
		alive := trimToCyclic(n, adj)
		anyAlive := false
		for _, a := range alive {
			anyAlive = anyAlive || a
		}
		if !anyAlive {
			continue
		}
		want, err := howard(n, adj, alive)
		if err != nil {
			t.Fatalf("trial %d: howard: %v", trial, err)
		}
		got, err := karpUnit(n, adj, alive)
		if err != nil {
			t.Fatalf("trial %d: karp: %v", trial, err)
		}
		if !got.Equal(want.CycleMean) {
			t.Errorf("trial %d (%d nodes, %d edges): karp %v, howard %v", trial, n, len(edges), got, want.CycleMean)
		}
	}
}
