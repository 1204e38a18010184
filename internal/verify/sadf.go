package verify

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// SADFEdge is one edge of the max-plus automaton of an FSM-SADF model.
// Nodes are (FSM state, initial token) pairs numbered state·N + token
// over the N shared tokens; for every FSM transition q1→q2 and every
// finite entry M(i,j) of the destination state's scenario matrix (in the
// shared global token order) the automaton carries an edge
// (q1,j)→(q2,i) of weight M(i,j) and delay 1. The maximum cycle ratio
// of this edge list is the worst-case iteration period over all infinite
// scenario sequences the FSM accepts (Skelin & Geilen, arXiv 1404.0089).
type SADFEdge struct {
	From, To int
	W, D     int64
}

// SADFTokenPerm returns the permutation from g's local token order (the
// replay order: channels in slice order, front of each FIFO first) to
// the canonical global order shared by all scenarios of a model: tokens
// sorted by (source actor name, destination actor name, FIFO position).
// perm[local] = global. Actor names pin the coordinates, so two
// scenario graphs over the same actor namespace with the same token
// signature agree on the global order even when their channel slices
// are ordered differently.
func SADFTokenPerm(g *sdf.Graph) []int {
	type tok struct {
		src, dst string
		pos      int
		local    int
	}
	var toks []tok
	local := 0
	for _, c := range g.Channels() {
		src, dst := g.Actor(c.Src).Name, g.Actor(c.Dst).Name
		for k := 0; k < c.Initial; k++ {
			toks = append(toks, tok{src: src, dst: dst, pos: k, local: local})
			local++
		}
	}
	sort.Slice(toks, func(a, b int) bool {
		ta, tb := toks[a], toks[b]
		if ta.src != tb.src {
			return ta.src < tb.src
		}
		if ta.dst != tb.dst {
			return ta.dst < tb.dst
		}
		return ta.pos < tb.pos
	})
	perm := make([]int, local)
	for global, t := range toks {
		perm[t.local] = global
	}
	return perm
}

// SADFTokenSignature summarises g's initial tokens as a canonical
// string: the sorted multiset of src→dst channel names with their token
// counts. Two scenario graphs are automaton-compatible exactly when
// their signatures match — then and only then do their max-plus
// matrices act on the same global token coordinates.
func SADFTokenSignature(g *sdf.Graph) string {
	var lines []string
	for _, c := range g.Channels() {
		if c.Initial == 0 {
			continue
		}
		lines = append(lines, g.Actor(c.Src).Name+"\x00"+g.Actor(c.Dst).Name+"\x00"+strconv.Itoa(c.Initial))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\x01")
}

// SADFAutomaton enumerates the max-plus automaton of an FSM-SADF model
// from its per-scenario matrices in global token coordinates. Each
// matrix's finite entries are listed once, in row-major order; every
// transition then emits the entries of its destination state's
// scenario. The enumeration is deterministic — transitions in slice
// order, matrix entries in row-major order. All matrices must share one
// dimension N ≥ 1 and every state/transition index must be in range.
func SADFAutomaton(stateScenario []int, transitions [][2]int, mats []*maxplus.Matrix) (int, []SADFEdge, error) {
	if len(mats) == 0 {
		return 0, nil, fmt.Errorf("verify: sadf automaton needs at least one scenario matrix")
	}
	n := mats[0].Size()
	if n < 1 {
		return 0, nil, fmt.Errorf("verify: sadf automaton needs at least one shared token")
	}
	type entry struct {
		i, j int
		w    int64
	}
	finite := make([][]entry, len(mats))
	for k, m := range mats {
		if m == nil || m.Size() != n {
			return 0, nil, fmt.Errorf("verify: scenario matrix %d does not share dimension %d", k, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if e := m.At(i, j); !e.IsNegInf() {
					finite[k] = append(finite[k], entry{i: i, j: j, w: e.Int()})
				}
			}
		}
	}
	states := len(stateScenario)
	if states == 0 {
		return 0, nil, fmt.Errorf("verify: sadf automaton needs at least one FSM state")
	}
	for q, s := range stateScenario {
		if s < 0 || s >= len(mats) {
			return 0, nil, fmt.Errorf("verify: state %d labels unknown scenario %d", q, s)
		}
	}
	total := 0
	for _, tr := range transitions {
		q1, q2 := tr[0], tr[1]
		if q1 < 0 || q1 >= states || q2 < 0 || q2 >= states {
			return 0, nil, fmt.Errorf("verify: transition %d->%d outside 0..%d", q1, q2, states-1)
		}
		total += len(finite[stateScenario[q2]])
	}
	edges := make([]SADFEdge, 0, total)
	for _, tr := range transitions {
		from, to := tr[0]*n, tr[1]*n
		for _, e := range finite[stateScenario[tr[1]]] {
			edges = append(edges, SADFEdge{From: from + e.j, To: to + e.i, W: e.w, D: 1})
		}
	}
	return states * n, edges, nil
}

// SADFCert certifies the worst-case iteration period of an FSM-SADF
// model without carrying a matrix. Each scenario contributes the
// schedule of one iteration: replaying it from global token times x
// ends the tokens at M ⊗ x, M the scenario's iteration matrix, so one
// replay of a transition's destination scenario from the source state's
// values checks every automaton edge of that transition. The FSM is
// carried verbatim. A bounded claim pairs potentials over the automaton
// nodes (upper bound) with a closed FSM walk and its entry token (lower
// bound); an unbounded claim carries a topological order of the nodes.
// DESIGN.md's scenario-aware dataflow section states the three proofs.
type SADFCert struct {
	// ScenarioNames and Schedules pair each scenario with the schedule
	// of one of its iterations, in the scenario graph's actor IDs.
	ScenarioNames []string
	Schedules     [][]sdf.ActorID
	// StateNames, StateScenario, Transitions and Initial carry the FSM:
	// state q is labeled with scenario StateScenario[q], transitions
	// are (from, to) state-index pairs, Initial is the start state.
	StateNames    []string
	StateScenario []int
	Transitions   [][2]int
	Initial       int
	// Unbounded claims the automaton is acyclic (Order is the witness);
	// otherwise Period = num/den is the worst-case iteration period.
	Unbounded bool
	Period    rat.Rat
	// Potentials holds one value per automaton node state·N + token
	// (global token order), scaled by den; nil when Unbounded.
	Potentials []int64
	// Walk is a closed FSM walk of states (Walk[t] → Walk[t+1], the last
	// back to the first) along which a critical automaton cycle runs,
	// entering Walk[0] at global token Entry; nil when Unbounded.
	Walk  []int
	Entry int
	// Order is the unboundedness witness, a permutation of the automaton
	// nodes; nil unless Unbounded.
	Order []int
}

// Kind identifies the claim.
func (c *SADFCert) Kind() Kind { return KindSADF }

// String summarises the certificate for reports.
func (c *SADFCert) String() string {
	if c.Unbounded {
		return fmt.Sprintf("sadf certificate: %d scenarios, %d states, acyclic automaton (topological witness over %d nodes)",
			len(c.ScenarioNames), len(c.StateNames), len(c.Order))
	}
	return fmt.Sprintf("sadf certificate: %d scenarios, %d states, worst-case period %v (potentials over %d nodes, critical cycle of %d edges)",
		len(c.ScenarioNames), len(c.StateNames), c.Period, len(c.Potentials), len(c.Walk))
}

// NewSADFCert packages an analyzed FSM-SADF model into a certificate.
// nodes and edges are the automaton SADFAutomaton enumerated for the
// model, schedules the scenarios' iteration schedules, (unbounded,
// period) the claim and critical the automaton nodes of the cycle
// Howard's iteration ended on, in cycle order. The potentials come from
// Bellman–Ford over the automaton, and every step of the critical cycle
// must be tight under them. Construction fails exactly when the claim
// is not the automaton's maximum cycle ratio, or critical is not a cycle
// attaining it.
func NewSADFCert(ctx context.Context, scenarioNames []string, schedules [][]sdf.ActorID,
	stateNames []string, stateScenario []int, transitions [][2]int, initial int,
	nodes int, sedges []SADFEdge, unbounded bool, period rat.Rat, critical []int) (*SADFCert, error) {
	cert := &SADFCert{
		ScenarioNames: scenarioNames,
		Schedules:     schedules,
		StateNames:    stateNames,
		StateScenario: stateScenario,
		Transitions:   transitions,
		Initial:       initial,
		Unbounded:     unbounded,
		Period:        period,
	}
	edges := make([]refEdge, len(sedges))
	for i, e := range sedges {
		edges[i] = refEdge{from: e.From, to: e.To, w: e.W, d: e.D}
	}
	if unbounded {
		order, err := extractTopoOrder(nodes, edges)
		if err != nil {
			return nil, err
		}
		cert.Order = order
		return cert, nil
	}
	p, scaled, err := extractPotentials(ctx, nodes, edges, period)
	if err != nil {
		return nil, err
	}
	if len(critical) == 0 {
		return nil, invalidf("no critical cycle to witness the claimed period %v", period)
	}
	// Step t of the cycle leaves critical[t]; Howard's cycle visits each
	// node once, so one pass over the edges finds every step.
	step := make([]int, nodes)
	for v := range step {
		step[v] = -1
	}
	for t, v := range critical {
		if v < 0 || v >= nodes {
			return nil, invalidf("critical cycle names node %d outside 0..%d", v, nodes-1)
		}
		step[v] = t
	}
	tight := 0
	for i, e := range edges {
		t := step[e.from]
		if t < 0 || critical[(t+1)%len(critical)] != e.to {
			continue
		}
		if p[e.from]+scaled[i] != p[e.to] {
			return nil, invalidf("claimed period %v is above the critical cycle's mean", period)
		}
		step[e.from] = -1
		tight++
	}
	if tight != len(critical) {
		return nil, invalidf("critical cycle steps along no automaton edge")
	}
	n := nodes / len(stateScenario)
	cert.Walk = make([]int, len(critical))
	for t, v := range critical {
		cert.Walk[t] = v / n
	}
	cert.Potentials, cert.Entry = p, critical[0]%n
	return cert, nil
}

// scenarioReplay replays one scenario's certified schedule in the
// model's global token coordinates.
type scenarioReplay struct {
	*tokenReplay
	perm []int // local token → global token
	inv  []int // global token → local token
}

func newScenarioReplay(r *tokenReplay, perm []int) *scenarioReplay {
	inv := make([]int, len(perm))
	for local, global := range perm {
		inv[global] = local
	}
	return &scenarioReplay{tokenReplay: r, perm: perm, inv: inv}
}

// apply replays one iteration from global token times x (−∞ as
// maxplus.NegInf): afterwards finalAt(i) is (M ⊗ x)_i.
func (s *scenarioReplay) apply(meter *guard.Meter, x []int64) error {
	return s.walk(meter, 1, func(k, _ int) maxplus.T { return maxplus.T(x[s.perm[k]]) })
}

// finalAt is the time stamp of global token i after the last apply.
func (s *scenarioReplay) finalAt(i int) maxplus.T { return s.final(s.inv[i], 0) }

// Check validates the certificate against the original scenario graphs
// (parallel to ScenarioNames). It re-derives everything the claim
// depends on — FSM well-formedness and reachability, the shared token
// signature, the global token order, each schedule as a minimal
// iteration — and trusts only the carried witnesses, which it checks by
// replaying the schedules, never forming a matrix.
func (c *SADFCert) Check(ctx context.Context, scenarios []*sdf.Graph) error {
	adj, err := c.checkStructure(scenarios)
	if err != nil {
		return err
	}
	den := int64(1)
	if !c.Unbounded {
		if c.Period.Sign() < 0 {
			return invalidf("claimed period %v is negative", c.Period)
		}
		if den = c.Period.Den(); den < 1 {
			return invalidf("claimed period %v has no positive denominator", c.Period)
		}
	}
	meter := guard.NewMeter(ctx, "verify")
	reps := make([]*scenarioReplay, len(scenarios))
	for k, g := range scenarios {
		r, err := newTokenReplay(meter, g, c.Schedules[k], 1)
		if err != nil {
			return fmt.Errorf("scenario %q schedule: %w", c.ScenarioNames[k], err)
		}
		if den != 1 {
			if err := r.scale(den); err != nil {
				return err
			}
		}
		reps[k] = newScenarioReplay(r, SADFTokenPerm(g))
	}
	meter.Phase("token-replay")
	n := scenarios[0].TotalInitialTokens()
	if c.Unbounded {
		return c.checkOrderReplays(meter, reps, adj, n)
	}
	if err := c.checkPotentialReplays(meter, reps, adj, n); err != nil {
		return err
	}
	return c.checkWalkReplay(meter, reps, adj, n)
}

// checkStructure re-derives FSM well-formedness and scenario
// compatibility from the graphs and carried indices, and returns the
// FSM's successor lists.
func (c *SADFCert) checkStructure(scenarios []*sdf.Graph) ([][]int, error) {
	if len(scenarios) == 0 || len(scenarios) != len(c.ScenarioNames) || len(scenarios) != len(c.Schedules) {
		return nil, invalidf("certificate covers %d scenarios, %d graphs given", len(c.ScenarioNames), len(scenarios))
	}
	states := len(c.StateNames)
	if states == 0 || len(c.StateScenario) != states {
		return nil, invalidf("certificate labels %d of %d states", len(c.StateScenario), states)
	}
	for q, s := range c.StateScenario {
		if s < 0 || s >= len(scenarios) {
			return nil, invalidf("state %q labels unknown scenario %d", c.StateNames[q], s)
		}
	}
	if c.Initial < 0 || c.Initial >= states {
		return nil, invalidf("initial state %d outside 0..%d", c.Initial, states-1)
	}
	adj := make([][]int, states)
	for _, tr := range c.Transitions {
		if tr[0] < 0 || tr[0] >= states || tr[1] < 0 || tr[1] >= states {
			return nil, invalidf("transition %d->%d outside 0..%d", tr[0], tr[1], states-1)
		}
		adj[tr[0]] = append(adj[tr[0]], tr[1])
	}
	// Reachability from the initial state: the analyzer only admits
	// models whose states are all reachable, so analyzer and checker
	// see the same automaton. A state the FSM can never reach would let
	// a forged certificate hide the critical cycle behind it.
	seen := make([]bool, states)
	stack := []int{c.Initial}
	seen[c.Initial] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range adj[q] {
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	for q, ok := range seen {
		if !ok {
			return nil, invalidf("state %q is unreachable from the initial state", c.StateNames[q])
		}
	}
	sig := SADFTokenSignature(scenarios[0])
	if sig == "" {
		return nil, invalidf("scenarios carry no initial tokens")
	}
	for k := 1; k < len(scenarios); k++ {
		if SADFTokenSignature(scenarios[k]) != sig {
			return nil, invalidf("scenario %q does not share the token signature of %q",
				c.ScenarioNames[k], c.ScenarioNames[0])
		}
	}
	return adj, nil
}

// eachTransition replays, for every transition q1→q2, q2's scenario
// from start(q1) and hands the replay to check. Transitions leaving one
// state towards the same scenario share one replay: its final times
// stay in place until that scenario replays again.
func (c *SADFCert) eachTransition(meter *guard.Meter, reps []*scenarioReplay, adj [][]int,
	start func(q int) []int64, check func(q1, q2 int, r *scenarioReplay) error) error {
	last := make([]int, len(reps)) // state each scenario last replayed from
	for k := range last {
		last[k] = -1
	}
	for q1, succ := range adj {
		for _, q2 := range succ {
			s := c.StateScenario[q2]
			if last[s] != q1 {
				if err := reps[s].apply(meter, start(q1)); err != nil {
					return err
				}
				last[s] = q1
			}
			if err := check(q1, q2, reps[s]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPotentialReplays proves the upper bound: for every transition
// q1→q2, the replay of q2's scenario from p(q1,·) ends every token i at
// or below p(q2,i) + num. That is den·M(i,j) + p(q1,j) ≤ p(q2,i) + num
// for every automaton edge, so no automaton cycle has a mean above
// num/den.
func (c *SADFCert) checkPotentialReplays(meter *guard.Meter, reps []*scenarioReplay, adj [][]int, n int) error {
	p, num := c.Potentials, c.Period.Num()
	if len(p) != len(c.StateNames)*n {
		return invalidf("potential witness covers %d of %d nodes", len(p), len(c.StateNames)*n)
	}
	target := make([]int64, len(p)) // p + num
	for v, x := range p {
		t, ok := rat.AddChecked(x, num)
		if !ok || maxplus.FromInt(x).IsNegInf() {
			return invalidf("potential %d of node %d is not a finite time", x, v)
		}
		target[v] = t
	}
	return c.eachTransition(meter, reps, adj,
		func(q int) []int64 { return p[q*n : (q+1)*n] },
		func(q1, q2 int, r *scenarioReplay) error {
			for i := 0; i < n; i++ {
				if f := r.finalAt(i); !f.IsNegInf() && f.Int() > target[q2*n+i] {
					return invalidf("transition %s -> %s ends token %d at %d, above p+num = %d: some cycle exceeds the claimed period %v",
						c.StateNames[q1], c.StateNames[q2], i, f.Int(), target[q2*n+i], c.Period)
				}
			}
			return nil
		})
}

// checkWalkReplay proves the lower bound: replaying the scenarios of the
// closed walk's states in turn, from the unit vector of the entry token,
// returns to that token at or above k·num after k steps. The replay is
// the maximum over the automaton paths from (Walk[0], Entry) back to
// itself along the walk, so one of them, a closed walk of the
// automaton, has a mean of at least num/den.
func (c *SADFCert) checkWalkReplay(meter *guard.Meter, reps []*scenarioReplay, adj [][]int, n int) error {
	k := len(c.Walk)
	if k == 0 {
		return invalidf("critical walk is empty")
	}
	if c.Entry < 0 || c.Entry >= n {
		return invalidf("critical walk enters at token %d outside 0..%d", c.Entry, n-1)
	}
	for t, q := range c.Walk {
		if q < 0 || q >= len(adj) {
			return invalidf("critical walk visits state %d outside 0..%d", q, len(adj)-1)
		}
		next := c.Walk[(t+1)%k]
		found := false
		for _, to := range adj[q] {
			if to == next {
				found = true
				break
			}
		}
		if !found {
			return invalidf("critical walk steps from %s to %s along no FSM transition", c.StateNames[q], c.StateNames[next])
		}
	}
	x := make([]int64, n)
	for i := range x {
		x[i] = int64(maxplus.NegInf)
	}
	x[c.Entry] = 0
	for t := range c.Walk {
		r := reps[c.StateScenario[c.Walk[(t+1)%k]]]
		if err := r.apply(meter, x); err != nil {
			return err
		}
		for i := range x {
			x[i] = int64(r.finalAt(i))
		}
	}
	want, ok := rat.MulChecked(int64(k), c.Period.Num())
	if !ok {
		return invalidf("critical walk weight %d·%d overflows int64", k, c.Period.Num())
	}
	if got := maxplus.T(x[c.Entry]); got.IsNegInf() || got.Int() < want {
		return invalidf("critical walk returns to token %d at %v, below %d·%d = %d: no cycle attains the claimed period %v",
			c.Entry, got, k, c.Period.Num(), want, c.Period)
	}
	return nil
}

// checkOrderReplays proves that the automaton has no cycle. With M0 the
// largest makespan of the scenarios' zero replays, every finite matrix
// entry lies in [0, M0]; starting token j at B·σ(q1,j), B = M0 + 1 and
// σ a node's position in Order, the replay of q2's scenario ends token
// i below B·σ(q2,i) exactly when every edge into (q2,i) over this
// transition comes from an earlier node. So Order is a topological order
// of the automaton, which is acyclic.
func (c *SADFCert) checkOrderReplays(meter *guard.Meter, reps []*scenarioReplay, adj [][]int, n int) error {
	nodes := len(c.StateNames) * n
	if len(c.Order) != nodes {
		return invalidf("topological order covers %d of %d nodes", len(c.Order), nodes)
	}
	pos := make([]int64, nodes)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range c.Order {
		if v < 0 || v >= nodes || pos[v] >= 0 {
			return invalidf("topological order is not a permutation of the nodes")
		}
		pos[v] = int64(i)
	}
	zero := make([]int64, n)
	m0 := int64(0)
	for _, r := range reps {
		if err := r.apply(meter, zero); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if f := r.finalAt(i); !f.IsNegInf() {
				m0 = max(m0, f.Int())
			}
		}
	}
	b, ok := rat.AddChecked(m0, 1)
	for v := range pos {
		if ok {
			pos[v], ok = rat.MulChecked(b, pos[v])
		}
	}
	if !ok {
		return invalidf("order shift (%d+1)·%d overflows int64", m0, nodes)
	}
	return c.eachTransition(meter, reps, adj,
		func(q int) []int64 { return pos[q*n : (q+1)*n] },
		func(q1, q2 int, r *scenarioReplay) error {
			for i := 0; i < n; i++ {
				if f := r.finalAt(i); !f.IsNegInf() && f.Int() >= pos[q2*n+i] {
					return invalidf("transition %s -> %s: token %d depends on a node at or after it in the order: the automaton has a cycle",
						c.StateNames[q1], c.StateNames[q2], i)
				}
			}
			return nil
		})
}
