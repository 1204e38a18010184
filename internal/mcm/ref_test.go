package mcm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rat"
	"repro/internal/sdf"
)

// refHowardRat is the test-only reference solver: Howard's policy
// iteration with every value a normalised rat.Rat and the bias zeroed
// at each policy cycle's entry node on every round. It is the solver
// the scaled-integer howard replaced; tests pin howard's ratios to it.
func refHowardRat(n int, adj [][]edge, alive []bool) (Result, error) {
	policy := make([]int, n) // index into adj[v] of the chosen edge
	eta := make([]rat.Rat, n)
	x := make([]rat.Rat, n)
	for v := 0; v < n; v++ {
		policy[v] = -1
		if !alive[v] {
			continue
		}
		for i, e := range adj[v] {
			if alive[e.to] {
				policy[v] = i
				break
			}
		}
		if policy[v] < 0 {
			return Result{}, fmt.Errorf("mcm: internal: alive node %d has no alive successor", v)
		}
	}

	const maxIters = 10000
	for iter := 0; iter < maxIters; iter++ {
		if err := refEvaluatePolicy(n, adj, alive, policy, eta, x); err != nil {
			return Result{}, err
		}
		improved := false
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			for i, e := range adj[v] {
				if i == policy[v] || !alive[e.to] {
					continue
				}
				switch eta[e.to].Cmp(eta[v]) {
				case 1:
					policy[v] = i
					improved = true
				case 0:
					// reward = w − η·d + x(to); switch if it beats x(v).
					reward, err := refEdgeReward(e, eta[v], x[e.to])
					if err != nil {
						return Result{}, err
					}
					if reward.Cmp(x[v]) > 0 {
						policy[v] = i
						improved = true
					}
				}
			}
		}
		if !improved {
			return refFinishHoward(n, adj, alive, policy, eta)
		}
	}
	return Result{}, fmt.Errorf("%w in %d iterations", errNoConvergence, maxIters)
}

func refEdgeReward(e edge, eta rat.Rat, xTo rat.Rat) (rat.Rat, error) {
	etaD, err := eta.MulInt(e.d)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("mcm: %w", err)
	}
	r, err := rat.FromInt(e.w).Sub(etaD)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("mcm: %w", err)
	}
	r, err = r.Add(xTo)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("mcm: %w", err)
	}
	return r, nil
}

// refEvaluatePolicy computes, for the functional policy graph, the cycle
// ratio η(v) of the cycle each node eventually reaches and a bias x(v)
// consistent with x(v) = w − η·d + x(π(v)) (with x fixed to 0 at one node
// of each cycle).
func refEvaluatePolicy(n int, adj [][]edge, alive []bool, policy []int, eta, x []rat.Rat) error {
	state := make([]int8, n) // 0 unvisited, 1 on current walk, 2 done
	for s := 0; s < n; s++ {
		if !alive[s] || state[s] != 0 {
			continue
		}
		// Follow the policy chain until any previously seen node.
		var chain []int
		v := s
		for state[v] == 0 {
			state[v] = 1
			chain = append(chain, v)
			v = adj[v][policy[v]].to
		}
		if state[v] == 1 {
			// v is on the current chain: its suffix is a new cycle.
			i := 0
			for chain[i] != v {
				i++
			}
			cyc := chain[i:]
			var sumW, sumD int64
			for _, u := range cyc {
				e := adj[u][policy[u]]
				sumW += e.w
				sumD += e.d
			}
			if sumD == 0 {
				return fmt.Errorf("mcm: internal: policy cycle without tokens")
			}
			ratio, err := rat.New(sumW, sumD)
			if err != nil {
				return fmt.Errorf("mcm: %w", err)
			}
			for _, u := range cyc {
				eta[u] = ratio
			}
			// Fix the bias at the cycle entry and propagate backwards
			// around the cycle (the successor of cyc[j] is cyc[j+1 mod m]).
			x[cyc[0]] = rat.Zero()
			for j := len(cyc) - 1; j >= 1; j-- {
				u := cyc[j]
				e := adj[u][policy[u]]
				r, err := refEdgeReward(e, eta[u], x[e.to])
				if err != nil {
					return err
				}
				x[u] = r
			}
			for _, u := range cyc {
				state[u] = 2
			}
		}
		// The rest of the chain (everything before the done terminal) is a
		// tree branch; fill it backwards so each successor is done first.
		for i := len(chain) - 1; i >= 0; i-- {
			u := chain[i]
			if state[u] == 2 {
				continue // node of the cycle handled above
			}
			e := adj[u][policy[u]]
			eta[u] = eta[e.to]
			r, err := refEdgeReward(e, eta[u], x[e.to])
			if err != nil {
				return err
			}
			x[u] = r
			state[u] = 2
		}
	}
	return nil
}

// refFinishHoward extracts the final answer: the maximum η and one cycle
// attaining it in the final policy graph.
func refFinishHoward(n int, adj [][]edge, alive []bool, policy []int, eta []rat.Rat) (Result, error) {
	best := -1
	for v := 0; v < n; v++ {
		if !alive[v] {
			continue
		}
		if best < 0 || eta[v].Cmp(eta[best]) > 0 {
			best = v
		}
	}
	if best < 0 {
		return Result{HasCycle: false}, nil
	}
	// Walk the policy from best until a node repeats; that loop is a
	// critical cycle (η is constant along a policy walk only downhill —
	// at the maximum it stays constant into its cycle).
	seenAt := make(map[int]int)
	var walk []int
	v := best
	for {
		if at, ok := seenAt[v]; ok {
			cyc := walk[at:]
			actors := make([]sdf.ActorID, len(cyc))
			for i, u := range cyc {
				actors[i] = sdf.ActorID(u)
			}
			return Result{CycleMean: eta[best], Critical: actors, HasCycle: true}, nil
		}
		seenAt[v] = len(walk)
		walk = append(walk, v)
		v = adj[v][policy[v]].to
	}
}

// buildAdj is the adjacency MaxCycleRatioEdges builds from a valid edge
// list.
func buildAdj(n int, edges []Edge) [][]edge {
	adj := make([][]edge, n)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], edge{to: e.To, w: e.W, d: e.D})
	}
	return adj
}

// refEdges answers an edge list with refHowardRat behind the same
// deadlock check and trim as MaxCycleRatioEdges. Where the reference
// hits its iteration cap on a unit-delay list, Karp's algorithm answers
// instead (ok reports whether either reference answered).
func refEdges(n int, edges []Edge) (res EdgeResult, ok bool, err error) {
	adj := buildAdj(n, edges)
	if hasZeroTokenCycle(n, adj) {
		return EdgeResult{}, true, ErrDeadlock
	}
	alive := trimToCyclic(n, adj)
	cyclic, unit := false, true
	for _, a := range alive {
		cyclic = cyclic || a
	}
	for _, e := range edges {
		unit = unit && e.D == 1
	}
	if !cyclic {
		return EdgeResult{}, true, nil
	}
	ref, err := refHowardRat(n, adj, alive)
	switch {
	case errors.Is(err, errNoConvergence) && unit:
		ratio, err := karpUnit(n, adj, alive)
		return EdgeResult{CycleRatio: ratio, HasCycle: true}, true, err
	case errors.Is(err, errNoConvergence):
		return EdgeResult{}, false, nil
	case err != nil:
		return EdgeResult{}, true, err
	}
	return EdgeResult{CycleRatio: ref.CycleMean, HasCycle: true}, true, nil
}

// scaledSlack returns q·W − p·D of e at ratio p/q.
func scaledSlack(e Edge, ratio rat.Rat) int64 {
	return ratio.Den()*e.W - ratio.Num()*e.D
}

// checkOptimal asserts that ratio is the maximum cycle ratio of the edge
// list and that crit is a cycle attaining it: no cycle has positive
// scaled slack q·W − p·D at the ratio (longest-path Bellman–Ford from a
// virtual source), and along crit, taking the best of parallel edges,
// the slack sums to exactly zero.
func checkOptimal(t *testing.T, label string, n int, edges []Edge, ratio rat.Rat, crit []int) {
	t.Helper()
	dist := make([]int64, n)
	for round := 0; ; round++ {
		changed := false
		for _, e := range edges {
			if d := dist[e.From] + scaledSlack(e, ratio); d > dist[e.To] {
				dist[e.To], changed = d, true
			}
		}
		if !changed {
			break
		}
		if round == n {
			t.Fatalf("%s: a cycle beats ratio %v", label, ratio)
		}
	}
	if len(crit) == 0 {
		t.Fatalf("%s: empty critical cycle", label)
	}
	var sum int64
	for i, u := range crit {
		v := crit[(i+1)%len(crit)]
		best, found := int64(0), false
		for _, e := range edges {
			if e.From == u && e.To == v && (!found || scaledSlack(e, ratio) > best) {
				best, found = scaledSlack(e, ratio), true
			}
		}
		if !found {
			t.Fatalf("%s: critical cycle %v uses a missing edge %d->%d", label, crit, u, v)
		}
		sum += best
	}
	if sum != 0 {
		t.Fatalf("%s: critical cycle %v does not attain ratio %v (slack %d)", label, crit, ratio, sum)
	}
}

// compareWithReference solves one edge list with MaxCycleRatioEdges and
// the reference and reports whether the list has a cycle.
func compareWithReference(t *testing.T, label string, n int, edges []Edge) bool {
	t.Helper()
	got, err := MaxCycleRatioEdges(n, edges)
	want, ok, werr := refEdges(n, edges)
	if errors.Is(werr, ErrDeadlock) || errors.Is(err, ErrDeadlock) {
		if !errors.Is(werr, ErrDeadlock) || !errors.Is(err, ErrDeadlock) {
			t.Fatalf("%s: deadlock disagreement: got %v, reference %v", label, err, werr)
		}
		return false
	}
	if err != nil || werr != nil {
		t.Fatalf("%s: howard %v, reference %v", label, err, werr)
	}
	if ok && (got.HasCycle != want.HasCycle || !got.CycleRatio.Equal(want.CycleRatio)) {
		t.Fatalf("%s: howard %v (cycle %v), reference %v (cycle %v)",
			label, got.CycleRatio, got.HasCycle, want.CycleRatio, want.HasCycle)
	}
	if got.HasCycle {
		checkOptimal(t, label, n, edges, got.CycleRatio, got.Critical)
	}
	return got.HasCycle
}

// randomEdgeList draws a sparse edge list of up to 40 nodes with small
// weights, some negative; delays are all 1 when unit, else 0 to 3.
func randomEdgeList(rng *rand.Rand, unit bool) (int, []Edge) {
	n := 1 + rng.Intn(40)
	var edges []Edge
	for v := 0; v < n; v++ {
		for k := rng.Intn(4); k > 0; k-- {
			e := Edge{From: v, To: rng.Intn(n), W: rng.Int63n(60) - 10, D: 1}
			if !unit {
				e.D = rng.Int63n(4)
			}
			edges = append(edges, e)
		}
	}
	return n, edges
}

// TestHowardMatchesRatReference pins the scaled-integer solver to the
// rat reference: the same HasCycle and CycleRatio on 1,000 cyclic
// unit-delay and 1,000 cyclic general-delay edge lists and on the
// random HSDF graphs of TestHowardAgainstBellmanFord, with a reported
// critical cycle that attains the ratio (it may be another critical
// cycle than the reference's).
func TestHowardMatchesRatReference(t *testing.T) {
	for _, unit := range []bool{true, false} {
		rng := rand.New(rand.NewSource(17))
		cyclic := 0
		for trial := 0; cyclic < 1000; trial++ {
			if trial == 20000 {
				t.Fatalf("unit=%v: only %d cyclic lists in %d trials", unit, cyclic, trial)
			}
			n, edges := randomEdgeList(rng, unit)
			if compareWithReference(t, fmt.Sprintf("unit=%v trial %d", unit, trial), n, edges) {
				cyclic++
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		g := randomStronglyConnectedHSDF(rng, 3+rng.Intn(8))
		var edges []Edge
		for _, c := range g.Channels() {
			edges = append(edges, Edge{From: int(c.Src), To: int(c.Dst), W: g.Actor(c.Src).Exec, D: int64(c.Initial)})
		}
		label := fmt.Sprintf("hsdf trial %d", trial)
		if !compareWithReference(t, label, g.NumActors(), edges) {
			t.Fatalf("%s: strongly connected graph reported acyclic", label)
		}
		res, err := MaxCycleRatio(g)
		if err != nil {
			t.Fatalf("%s: MaxCycleRatio: %v", label, err)
		}
		crit := make([]int, len(res.Critical))
		for i, a := range res.Critical {
			crit[i] = int(a)
		}
		checkOptimal(t, label, g.NumActors(), edges, res.CycleMean, crit)
	}
}

// TestHowardOverflowIsAnError: weights near 2^62 overflow the cycle
// sum, the scaled evaluation or the scaled improvement test; each is an
// error wrapping rat.ErrOverflow, never a panic or a ratio.
func TestHowardOverflowIsAnError(t *testing.T) {
	const big = int64(1) << 62
	for _, c := range []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"cycle weight", 2, []Edge{{From: 0, To: 1, W: big, D: 1}, {From: 1, To: 0, W: big, D: 1}}},
		// Ratio (2^62+1)/3, anchored at node 0: evaluating node 1
		// scales 2^62 by 3.
		{"scaled evaluation", 2, []Edge{{From: 0, To: 1, W: 1, D: 1}, {From: 1, To: 0, W: big, D: 2}}},
		// Both self-loops have ratio 1/2; testing 0->1 at that tie
		// scales 2^62 by 2.
		{"scaled improvement", 2, []Edge{
			{From: 0, To: 0, W: 1, D: 2}, {From: 0, To: 1, W: big, D: 1}, {From: 1, To: 1, W: 1, D: 2}}},
	} {
		res, err := MaxCycleRatioEdges(c.n, c.edges)
		if !errors.Is(err, rat.ErrOverflow) {
			t.Errorf("%s: got %v (ratio %v), want an error wrapping rat.ErrOverflow", c.name, err, res.CycleRatio)
		}
	}
	g := sdf.NewGraph("big")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", big)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 2)
	if res, err := MaxCycleRatio(g); !errors.Is(err, rat.ErrOverflow) {
		t.Errorf("HSDF graph: got %v (mean %v), want an error wrapping rat.ErrOverflow", err, res.CycleMean)
	}
}
