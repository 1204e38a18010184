package verify

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/testutil"
)

// tightEdges lists the edges of m's precedence graph that are tight
// under the certificate's potentials: den·M_ij + p_j = p_i + num.
func tightEdges(m *maxplus.Matrix, c *ThroughputCert) [][]int {
	n := m.Size()
	succ := make([][]int, n)
	num, den := c.Period.Num(), c.Period.Den()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if e := m.At(i, j); !e.IsNegInf() && den*e.Int()+c.Potentials[j] == c.Potentials[i]+num {
				succ[j] = append(succ[j], i)
			}
		}
	}
	return succ
}

// onTightCycle reports whether token v lies on a cycle of tight edges,
// that is on some critical cycle.
func onTightCycle(succ [][]int, v int) bool {
	seen := make([]bool, len(succ))
	stack := append([]int(nil), succ[v]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == v {
			return true
		}
		if !seen[u] {
			seen[u] = true
			stack = append(stack, succ[u]...)
		}
	}
	return false
}

// tightCycleWithin reports whether the tight edges among the tokens of
// set close a cycle (Kahn's algorithm leaves a remainder).
func tightCycleWithin(succ [][]int, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	indeg := make(map[int]int, len(set))
	for _, v := range set {
		for _, w := range succ[v] {
			if in[w] {
				indeg[w]++
			}
		}
	}
	var queue []int
	for _, v := range set {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	removed := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		removed++
		for _, w := range succ[v] {
			if in[w] {
				if indeg[w]--; indeg[w] == 0 {
					queue = append(queue, w)
				}
			}
		}
	}
	return removed < len(set)
}

// dependentPair returns two distinct tokens u, v of m with v depending
// on u.
func dependentPair(m *maxplus.Matrix) (u, v int, ok bool) {
	for v = 0; v < m.Size(); v++ {
		for u = 0; u < m.Size(); u++ {
			if u != v && !m.At(v, u).IsNegInf() {
				return u, v, true
			}
		}
	}
	return 0, 0, false
}

// TestThroughputCertTamperTable rejects, on seeded random graphs, the
// Table-1 graphs and the N = 2001 graph: a doubled repetition vector,
// the period off by 1/den in either direction, a critical token swapped
// for one off every critical cycle, and, on unbounded certificates, two
// dependent tokens of the order swapped.
func TestThroughputCertTamperTable(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2001))
	var graphs []*sdf.Graph
	for i := 0; i < 16; i++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(6), MaxRep: 1 + rng.Int63n(4), MaxExec: 9,
			Chords: rng.Intn(4), SelfLoop: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, c := range benchmarks.All() {
		graphs = append(graphs, c.Graph())
	}
	graphs = append(graphs, testutil.N2001Graph())
	graphs = append(graphs, acyclicGraphs(t, rng, 8)...)

	reject := func(g *sdf.Graph, what string, c *ThroughputCert) {
		t.Helper()
		if err := c.Check(ctx, g); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: %s accepted: %v", g.Name(), what, err)
		}
	}
	swaps, orders := 0, 0
	for _, g := range graphs {
		r, cert, _ := engineCerts(t, g)
		if cert.Unbounded {
			if u, v, ok := dependentPair(r.Matrix); ok {
				pos := make([]int, len(cert.Order))
				for i, k := range cert.Order {
					pos[k] = i
				}
				tampered := *cert
				tampered.Order = append([]int(nil), cert.Order...)
				tampered.Order[pos[u]], tampered.Order[pos[v]] = v, u
				reject(g, "order with a dependent pair swapped", &tampered)
				orders++
			}
			continue
		}
		double := *cert
		double.Q = make([]int64, len(cert.Q))
		for a, v := range cert.Q {
			double.Q[a] = 2 * v
		}
		reject(g, "doubled repetition vector", &double)
		num, den := cert.Period.Num(), cert.Period.Den()
		for _, d := range []int64{-1, 1} {
			tampered := *cert
			tampered.Period = rat.MustNew(num+d, den)
			reject(g, "period off by 1/den", &tampered)
		}
		succ := tightEdges(r.Matrix, cert)
		for off := 0; off < r.Matrix.Size(); off++ {
			if onTightCycle(succ, off) {
				continue
			}
			for k := range cert.Critical {
				rest := append(append([]int(nil), cert.Critical[:k]...), cert.Critical[k+1:]...)
				if tightCycleWithin(succ, rest) {
					continue // the rest still closes a critical cycle
				}
				tampered := *cert
				tampered.Critical = append(rest, off)
				reject(g, "a critical token swapped for one off every critical cycle", &tampered)
				swaps++
				break
			}
			break
		}
	}
	t.Logf("%d critical-token swaps, %d order swaps rejected", swaps, orders)
	if swaps < 10 || orders < 4 {
		t.Errorf("only %d critical-token swaps and %d order swaps were applicable", swaps, orders)
	}
}

// TestN2001ForgedMatrixRejected forges the iteration matrix of the
// N = 2001 graph past the 2^22 replay cap: two entries of the critical
// token's row trade places, so every row maximum and the entry range —
// all the partial matrix binding checks at this size — stay intact, and
// the forged matrix's eigenvalue is smaller. Witnesses extracted from
// the forgery pass the matrix-anchored reference; the replay check
// rejects them.
func TestN2001ForgedMatrixRejected(t *testing.T) {
	ctx := context.Background()
	g := testutil.N2001Graph()
	r, cert, _ := engineCerts(t, g)
	if err := cert.Check(ctx, g); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	if (&MatrixCert{Matrix: r.Matrix, Schedule: r.Schedule}).ExhaustiveFor(g) {
		t.Fatal("N·Σq is within the exhaustive replay cap; the graph does not exercise the partial binding")
	}
	forged := r.Matrix.Clone()
	i := cert.Critical[0]
	var finite []int
	for j := 0; j < forged.Size(); j++ {
		if !forged.At(i, j).IsNegInf() {
			finite = append(finite, j)
		}
	}
	if len(finite) != 2 {
		t.Fatalf("critical row %d has %d finite entries, want 2", i, len(finite))
	}
	a, b := forged.At(i, finite[0]), forged.At(i, finite[1])
	forged.Set(i, finite[0], b)
	forged.Set(i, finite[1], a)
	lam, cyc, hasCycle, err := forged.CriticalCycle()
	if err != nil || !hasCycle {
		t.Fatalf("forged eigenvalue: %v (cycle=%v)", err, hasCycle)
	}
	if lam.Cmp(cert.Period) >= 0 {
		t.Fatalf("forged period %v is not below the true %v", lam, cert.Period)
	}
	forgedMC := &MatrixCert{Matrix: forged, Schedule: r.Schedule}
	if err := forgedMC.Check(ctx, g); err != nil {
		t.Fatalf("the partial binding rejects the forgery, so it proves nothing: %v", err)
	}
	ref, err := newRefThroughputCert(ctx, forgedMC, cert.Q, false, lam)
	if err != nil {
		t.Fatal(err)
	}
	if err := refThroughputCheck(ctx, ref, g); err != nil {
		t.Fatalf("the matrix-anchored reference rejects the forgery, so it proves nothing: %v", err)
	}
	forgery, err := NewMatrixThroughputCert(ctx, forged, r.Schedule, cert.Q, false, lam, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if err := forgery.Check(ctx, g); !errors.Is(err, ErrInvalid) {
		t.Fatalf("forged certificate for period %v (true %v) accepted: %v", lam, cert.Period, err)
	}
}
