// Package mcm computes the maximum cycle mean (maximum cycle ratio) of
// homogeneous SDF graphs: the maximum over all directed cycles of the sum
// of actor execution times divided by the number of initial tokens on the
// cycle. The reciprocal is the self-timed throughput of the HSDF graph,
// the quantity the traditional conversion path of the paper feeds into.
//
// The algorithm is Howard's policy iteration, the consistently
// fastest algorithm in the comparison of Dasdan, Irani and Gupta (DAC'99)
// that the paper cites. The tests cross-check it against a parametric
// Bellman–Ford feasibility oracle.
package mcm

import (
	"errors"
	"fmt"

	"repro/internal/rat"
	"repro/internal/sdf"
)

// ErrDeadlock indicates a cycle without initial tokens: the HSDF graph can
// never fire the actors on it.
var ErrDeadlock = errors.New("mcm: zero-token cycle (deadlock)")

// ErrNotHSDF indicates the graph has a rate different from 1.
var ErrNotHSDF = errors.New("mcm: graph is not homogeneous")

// errNoConvergence marks Howard's policy iteration hitting its
// iteration cap.
var errNoConvergence = errors.New("mcm: Howard's algorithm did not converge")

// Result reports the maximum cycle ratio and one critical cycle.
type Result struct {
	// CycleMean is the maximum over cycles of Σexec/Σtokens: the
	// asymptotic iteration period of the graph.
	CycleMean rat.Rat
	// Critical lists the actors of one cycle attaining the maximum, in
	// order (first actor repeated implicitly).
	Critical []sdf.ActorID
	// HasCycle is false when the graph is acyclic; CycleMean and Critical
	// are then meaningless and the self-timed throughput is unbounded.
	HasCycle bool
}

type edge struct {
	to int
	w  int64 // weight: the source actor's execution time on an HSDF graph
	d  int64 // delay: the channel's initial tokens on an HSDF graph
}

// MaxCycleRatio computes the maximum cycle mean of an HSDF graph. It
// returns ErrDeadlock if some cycle carries no initial tokens and
// ErrNotHSDF if any rate differs from 1.
func MaxCycleRatio(g *sdf.Graph) (Result, error) {
	if !g.IsHSDF() {
		return Result{}, ErrNotHSDF
	}
	edges := make([]Edge, 0, g.NumChannels())
	for _, c := range g.Channels() {
		edges = append(edges, Edge{From: int(c.Src), To: int(c.Dst), W: g.Actor(c.Src).Exec, D: int64(c.Initial)})
	}
	res, err := MaxCycleRatioEdges(g.NumActors(), edges)
	if err != nil || !res.HasCycle {
		return Result{}, err
	}
	actors := make([]sdf.ActorID, len(res.Critical))
	for i, v := range res.Critical {
		actors[i] = sdf.ActorID(v)
	}
	return Result{CycleMean: res.CycleRatio, Critical: actors, HasCycle: true}, nil
}

// hasZeroTokenCycle reports whether the subgraph of zero-token channels
// contains a cycle (iterative colour DFS).
func hasZeroTokenCycle(n int, adj [][]edge) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make([]byte, n)
	type frame struct{ v, i int }
	var stack []frame
	for s := 0; s < n; s++ {
		if colour[s] != white {
			continue
		}
		stack = append(stack[:0], frame{v: s})
		colour[s] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.i < len(adj[f.v]) {
				e := adj[f.v][f.i]
				f.i++
				if e.d != 0 {
					continue
				}
				switch colour[e.to] {
				case grey:
					return true
				case white:
					colour[e.to] = grey
					stack = append(stack, frame{v: e.to})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				colour[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false
}

// trimToCyclic marks the nodes that lie on or can reach a cycle by
// repeatedly discarding nodes without outgoing edges into the alive set.
func trimToCyclic(n int, adj [][]edge) []bool {
	alive := make([]bool, n)
	outdeg := make([]int, n)
	// Reverse adjacency in one array: the predecessors of v are
	// pred[at[v]:at[v+1]] once filled.
	at := make([]int, n+1)
	for v := range adj {
		alive[v] = true
		outdeg[v] = len(adj[v])
		for _, e := range adj[v] {
			at[e.to]++
		}
	}
	for v := 1; v <= n; v++ {
		at[v] += at[v-1]
	}
	pred := make([]int, at[n])
	for u := range adj {
		for _, e := range adj[u] {
			at[e.to]--
			pred[at[e.to]] = u
		}
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if outdeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		alive[v] = false
		for _, u := range pred[at[v]:at[v+1]] {
			if !alive[u] {
				continue
			}
			outdeg[u]--
			if outdeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	return alive
}

// howard runs policy iteration for the maximum cycle ratio on the alive
// subgraph. Every alive node has at least one alive successor.
//
// The values are exact scaled integers: a node whose policy walk ends in
// a cycle of ratio η = p/q (normalised once per cycle) holds η and its
// bias x scaled by q, X = q·x. Evaluation and the η-tie improvement test
// are then integer arithmetic with overflow checks; an overflow is an
// error wrapping rat.ErrOverflow.
func howard(n int, adj [][]edge, alive []bool) (EdgeResult, error) {
	policy := make([]int, n) // index into adj[v] of the chosen edge
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
			return EdgeResult{}, fmt.Errorf("mcm: internal: alive node %d has no alive successor", v)
		}
	}
	// The first evaluation sees η = 0 and X = 0 everywhere, so a cycle of
	// ratio 0 "keeps" a zero anchor bias: the same as fixing it.
	eta := make([]rat.Rat, n)
	bias := make([]int64, n)
	state := make([]int8, n)
	chain := make([]int, 0, n)

	const maxIters = 10000
	for iter := 0; iter < maxIters; iter++ {
		if err := evaluatePolicy(adj, alive, policy, eta, bias, state, chain); err != nil {
			return EdgeResult{}, err
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
				if !eta[e.to].Equal(eta[v]) {
					if eta[e.to].Cmp(eta[v]) > 0 {
						policy[v] = i
						improved = true
					}
					continue
				}
				// Same η, same scale: switch if q·w − p·d + X(to) beats X(v).
				reward, err := scaledReward(e, eta[v], bias[e.to])
				if err != nil {
					return EdgeResult{}, err
				}
				if reward > bias[v] {
					policy[v] = i
					improved = true
				}
			}
		}
		if !improved {
			return finishHoward(adj, alive, policy, eta, state, chain), nil
		}
	}
	return EdgeResult{}, fmt.Errorf("%w in %d iterations", errNoConvergence, maxIters)
}

// scaledReward returns q·w − p·d + xTo for η = p/q: the scaled bias of
// a node whose policy edge is e, given its successor's scaled bias xTo.
func scaledReward(e edge, eta rat.Rat, xTo int64) (int64, error) {
	qw, ok1 := rat.MulChecked(eta.Den(), e.w)
	pd, ok2 := rat.MulChecked(eta.Num(), -e.d)
	r, ok3 := rat.AddChecked(qw, pd)
	r, ok4 := rat.AddChecked(r, xTo)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return 0, fmt.Errorf("mcm: scaled bias at ratio %v: %w", eta, rat.ErrOverflow)
	}
	return r, nil
}

// evaluatePolicy computes, for the functional policy graph, the ratio
// η(v) = p/q of the cycle each node's walk reaches and the scaled bias
// X(v) = q·w − p·d + X(π(v)). Each cycle's biases are fixed at one
// node, its anchor. When the cycle's ratio equals the anchor's η of the
// previous round, the cycle survived the improvement step unchanged and
// the anchor keeps its bias; otherwise the cycle is new and its anchor
// gets 0. Keeping it is what makes the iteration terminate (DESIGN.md,
// "Howard's iteration"). state and chain are scratch of length and
// capacity n.
func evaluatePolicy(adj [][]edge, alive []bool, policy []int, eta []rat.Rat, bias []int64, state []int8, chain []int) error {
	for v := range state {
		state[v] = 0 // 0 unvisited, 1 on current walk, 2 done
	}
	for s := range state {
		if !alive[s] || state[s] != 0 {
			continue
		}
		// Follow the policy chain until any previously seen node.
		chain = chain[:0]
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
			fits := true
			for _, u := range cyc {
				e := adj[u][policy[u]]
				var okW, okD bool
				sumW, okW = rat.AddChecked(sumW, e.w)
				sumD, okD = rat.AddChecked(sumD, e.d)
				fits = fits && okW && okD
			}
			if !fits {
				return fmt.Errorf("mcm: policy cycle weight: %w", rat.ErrOverflow)
			}
			if sumD == 0 {
				return fmt.Errorf("mcm: internal: policy cycle without tokens")
			}
			ratio, err := rat.New(sumW, sumD)
			if err != nil {
				return fmt.Errorf("mcm: %w", err)
			}
			if anchor := cyc[0]; !ratio.Equal(eta[anchor]) {
				bias[anchor] = 0
			}
			for _, u := range cyc {
				eta[u] = ratio
			}
			// Propagate backwards around the cycle from the anchor (the
			// successor of cyc[j] is cyc[j+1 mod m]).
			for j := len(cyc) - 1; j >= 1; j-- {
				u := cyc[j]
				e := adj[u][policy[u]]
				if bias[u], err = scaledReward(e, ratio, bias[e.to]); err != nil {
					return err
				}
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
			var err error
			if bias[u], err = scaledReward(e, eta[u], bias[e.to]); err != nil {
				return err
			}
			state[u] = 2
		}
	}
	return nil
}

// finishHoward extracts the final answer: the maximum η and one cycle
// attaining it in the final policy graph. state and chain are scratch.
func finishHoward(adj [][]edge, alive []bool, policy []int, eta []rat.Rat, state []int8, chain []int) EdgeResult {
	best := -1
	for v, a := range alive {
		if a && (best < 0 || eta[v].Cmp(eta[best]) > 0) {
			best = v
		}
	}
	// Walk the policy from best until a node repeats; that loop is a
	// critical cycle (η is constant along a policy walk only downhill —
	// at the maximum it stays constant into its cycle).
	for v := range state {
		state[v] = 0
	}
	chain = chain[:0]
	v := best
	for state[v] == 0 {
		state[v] = 1
		chain = append(chain, v)
		v = adj[v][policy[v]].to
	}
	i := 0
	for chain[i] != v {
		i++
	}
	return EdgeResult{CycleRatio: eta[best], Critical: append([]int(nil), chain[i:]...), HasCycle: true}
}
