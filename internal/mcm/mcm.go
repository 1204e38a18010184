// Package mcm computes the maximum cycle mean (maximum cycle ratio) of
// homogeneous SDF graphs: the maximum over all directed cycles of the sum
// of actor execution times divided by the number of initial tokens on the
// cycle. The reciprocal is the self-timed throughput of the HSDF graph,
// the quantity the traditional conversion path of the paper feeds into.
//
// The primary algorithm is Howard's policy iteration, the consistently
// fastest algorithm in the comparison of Dasdan, Irani and Gupta (DAC'99)
// that the paper cites; a parametric Bellman–Ford feasibility check is
// provided for cross-validation.
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
	w  int64 // execution time of the source actor
	d  int64 // initial tokens
}

// MaxCycleRatio computes the maximum cycle mean of an HSDF graph. It
// returns ErrDeadlock if some cycle carries no initial tokens and
// ErrNotHSDF if any rate differs from 1.
func MaxCycleRatio(g *sdf.Graph) (Result, error) {
	if !g.IsHSDF() {
		return Result{}, ErrNotHSDF
	}
	n := g.NumActors()
	adj := make([][]edge, n)
	for _, c := range g.Channels() {
		adj[c.Src] = append(adj[c.Src], edge{to: int(c.Dst), w: g.Actor(c.Src).Exec, d: int64(c.Initial)})
	}

	if hasZeroTokenCycle(n, adj) {
		return Result{}, ErrDeadlock
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
		return Result{HasCycle: false}, nil
	}
	return howard(n, adj, alive)
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
	for s := 0; s < n; s++ {
		if colour[s] != white {
			continue
		}
		stack := []frame{{v: s}}
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
	radj := make([][]int, n) // reverse adjacency, nodes only
	for v := range adj {
		alive[v] = true
		outdeg[v] = len(adj[v])
		for _, e := range adj[v] {
			radj[e.to] = append(radj[e.to], v)
		}
	}
	var queue []int
	for v := 0; v < n; v++ {
		if outdeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		alive[v] = false
		for _, u := range radj[v] {
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
func howard(n int, adj [][]edge, alive []bool) (Result, error) {
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
		if err := evaluatePolicy(n, adj, alive, policy, eta, x); err != nil {
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
					reward, err := edgeReward(e, eta[v], x[e.to])
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
			return finishHoward(n, adj, alive, policy, eta)
		}
	}
	return Result{}, fmt.Errorf("%w in %d iterations", errNoConvergence, maxIters)
}

func edgeReward(e edge, eta rat.Rat, xTo rat.Rat) (rat.Rat, error) {
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

// evaluatePolicy computes, for the functional policy graph, the cycle
// ratio η(v) of the cycle each node eventually reaches and a bias x(v)
// consistent with x(v) = w − η·d + x(π(v)) (with x fixed to 0 at one node
// of each cycle).
func evaluatePolicy(n int, adj [][]edge, alive []bool, policy []int, eta, x []rat.Rat) error {
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
				r, err := edgeReward(e, eta[u], x[e.to])
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
			r, err := edgeReward(e, eta[u], x[e.to])
			if err != nil {
				return err
			}
			x[u] = r
			state[u] = 2
		}
	}
	return nil
}

// finishHoward extracts the final answer: the maximum η and one cycle
// attaining it in the final policy graph.
func finishHoward(n int, adj [][]edge, alive []bool, policy []int, eta []rat.Rat) (Result, error) {
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
