package verify

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// refEdge is one dependency of a reference precedence graph: the value
// of node `to` in an iteration lags the value of node `from` in the
// d-th previous iteration by at least w. Cycle ratios Σw/Σd over this
// graph are iteration periods.
type refEdge struct {
	from, to int
	w, d     int64
}

// ThroughputCert certifies an iteration period Λ = num/den (or
// unboundedness) of a timed SDF graph. The claim is anchored in exactly
// one of two places:
//
//   - Matrix anchor: the iteration matrix M of Algorithm 1, which the
//     certificate does not carry. It carries the Schedule of one
//     iteration instead: replaying that schedule from initial token
//     times x ends the tokens at M ⊗ x, so single-lane replays from
//     the witnesses check the claim against g itself, at every size.
//   - HSDF anchor: the classical converted graph (one node per firing,
//     edge delay = initial tokens). The checker pins the node count to
//     Σq and every edge weight to the execution time of the original
//     actor the node maps back to (the conversion lays firings out
//     actor by actor), but trusts the anchor's edge set and delays —
//     a narrower binding than the matrix anchor's, and the documented
//     reason two *verified* engines can still disagree.
//
// A bounded claim pairs two witnesses. The upper bound is Potentials:
// integers p, scaled by den, with no dependency gaining on them faster
// than the period — for the matrix anchor den·M_ij + p_j ≤ p_i + num
// for every finite entry, for the HSDF anchor
// p[from] + w·den − num·d ≤ p[to] for every edge. Summing around any
// cycle bounds its ratio by Λ. The lower bound exhibits a cycle that
// attains Λ: for the matrix anchor the token set Critical of one, for
// the HSDF anchor the closed walk Cycle of reference edges. An
// unbounded claim instead carries Order, a topological order proving
// the dependencies have no cycle at all.
type ThroughputCert struct {
	// Unbounded claims no dependency cycle constrains the steady state.
	Unbounded bool
	// Period is the claimed iteration period Λ (unused when Unbounded).
	Period rat.Rat
	// Q is the repetition vector the period refers to, certified
	// against the balance equations.
	Q []int64

	// Schedule anchors the claim in the iteration matrix it replays.
	Schedule []sdf.ActorID
	// HSDF anchors the claim in a classical converted graph.
	HSDF *sdf.Graph

	// Potentials is the upper-bound witness: one entry per initial token
	// (matrix anchor) or reference node (HSDF anchor); nil when
	// Unbounded.
	Potentials []int64
	// Critical is the matrix anchor's lower-bound witness: the initial
	// tokens of a critical cycle; nil when Unbounded.
	Critical []int
	// Cycle is the HSDF anchor's lower-bound witness: indices into the
	// canonical reference edge enumeration forming a closed walk; nil
	// when Unbounded.
	Cycle []int
	// Order is the unboundedness witness, a permutation of the initial
	// tokens or reference nodes; nil unless Unbounded.
	Order []int
}

// Kind returns KindThroughput.
func (c *ThroughputCert) Kind() Kind { return KindThroughput }

// Engine-facing description, used by the CLI's -verify output.
func (c *ThroughputCert) String() string {
	switch {
	case c.HSDF != nil && c.Unbounded:
		return fmt.Sprintf("throughput certificate [hsdf anchor]: unbounded (topological order over %d nodes)", len(c.Order))
	case c.HSDF != nil:
		return fmt.Sprintf("throughput certificate [hsdf anchor]: period %v (critical cycle of %d edges, %d potentials)",
			c.Period, len(c.Cycle), len(c.Potentials))
	case c.Unbounded:
		return fmt.Sprintf("throughput certificate [matrix anchor]: unbounded (topological order over %d tokens)", len(c.Order))
	default:
		return fmt.Sprintf("throughput certificate [matrix anchor]: period %v (critical cycle over %d tokens, %d potentials)",
			c.Period, len(c.Critical), len(c.Potentials))
	}
}

// Check validates the anchor and the witnesses against g.
func (c *ThroughputCert) Check(ctx context.Context, g *sdf.Graph) error {
	switch {
	case c.HSDF == nil:
		return c.checkReplays(ctx, g)
	case c.Schedule == nil:
		if err := checkRepetition(g, c.Q); err != nil {
			return err
		}
		nodes, edges, err := hsdfRef(g, c.HSDF, c.Q)
		if err != nil {
			return err
		}
		if c.Unbounded {
			return checkTopoOrder(nodes, edges, c.Order)
		}
		if err := checkPotentials(nodes, edges, c.Potentials, c.Period); err != nil {
			return err
		}
		return checkCycle(edges, c.Cycle, c.Period)
	default:
		return invalidf("throughput certificate must carry exactly one anchor")
	}
}

// checkReplays checks a matrix-anchored claim with single-lane replays
// of the certified schedule, never forming M: an iteration replayed
// from token times x ends token i at (M ⊗ x)_i = max_j (M_ij + x_j).
func (c *ThroughputCert) checkReplays(ctx context.Context, g *sdf.Graph) error {
	// replayCounts certifies the firing counts as the minimal repetition
	// vector, which is unique: Q is certified by equality with them.
	counts, err := replayCounts(ctx, g, c.Schedule)
	if err != nil {
		return err
	}
	if !slices.Equal(counts, c.Q) {
		return invalidf("repetition vector %v differs from the schedule's firing counts", c.Q)
	}
	r, err := newTokenReplay(g, c.Schedule, 1)
	if err != nil {
		return err
	}
	meter := guard.NewMeter(ctx, "verify")
	meter.Phase("token-replay")
	if c.Unbounded {
		return c.checkOrderReplay(meter, r, g.TotalInitialTokens())
	}
	return c.checkPeriodReplays(meter, r, g.TotalInitialTokens())
}

// checkPeriodReplays proves Λ = num/den exactly, with execution times
// scaled by den.
//
//   - Upper bound: the replay from p ends every token i at or below
//     p_i + num, i.e. den·M_ij + p_j ≤ p_i + num for every finite entry,
//     so no cycle of M has a mean above Λ.
//   - Lower bound: the replay from p on Critical (−∞ elsewhere) ends
//     every critical token i at or above p_i + num, so i has a critical
//     predecessor j with den·M_ij + p_j ≥ p_i + num. Following
//     predecessors inside the finite set closes a cycle, and summing
//     its inequalities puts its mean at or above Λ.
func (c *ThroughputCert) checkPeriodReplays(meter *guard.Meter, r *tokenReplay, n int) error {
	num, den := c.Period.Num(), c.Period.Den()
	p := c.Potentials
	if den < 1 {
		return invalidf("claimed period %v has no positive denominator", c.Period)
	}
	if len(p) != n {
		return invalidf("potential witness covers %d of %d tokens", len(p), n)
	}
	target := make([]int64, n) // p_i + num
	for i, v := range p {
		t, ok := rat.AddChecked(v, num)
		if !ok || maxplus.FromInt(v).IsNegInf() {
			return invalidf("potential %d of token %d is not a finite time", v, i)
		}
		target[i] = t
	}
	inS := make([]bool, n)
	for _, k := range c.Critical {
		if k < 0 || k >= n || inS[k] {
			return invalidf("critical token set names token %d twice or out of range", k)
		}
		inS[k] = true
	}
	if len(c.Critical) == 0 {
		return invalidf("critical token set is empty")
	}
	if err := r.scale(den); err != nil {
		return err
	}
	if err := r.walk(meter, 1, func(k, _ int) maxplus.T { return maxplus.FromInt(p[k]) }); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if f := r.final(i, 0); !f.IsNegInf() && f.Int() > target[i] {
			return invalidf("token %d ends the replay from its potential at %d, above p+num = %d: some cycle exceeds the claimed period %v",
				i, f.Int(), target[i], c.Period)
		}
	}
	onS := func(k, _ int) maxplus.T {
		if inS[k] {
			return maxplus.FromInt(p[k])
		}
		return maxplus.NegInf
	}
	if err := r.walk(meter, 1, onS); err != nil {
		return err
	}
	for _, i := range c.Critical {
		if f := r.final(i, 0); f.IsNegInf() || f.Int() < target[i] {
			return invalidf("critical token %d ends the replay from the critical set at %v, below p+num = %d: no cycle attains the claimed period %v",
				i, f, target[i], c.Period)
		}
	}
	return nil
}

// checkOrderReplay proves that M has no cycle. With M0 the makespan of
// the replay from 0, every finite entry lies in [0, M0]; starting token
// j at B·σ(j), B = M0 + 1 and σ(j) its position in Order, token i ends
// below B·σ(i) exactly when every token it depends on comes earlier in
// the order. So Order is a topological order of M's precedence graph,
// which is acyclic.
func (c *ThroughputCert) checkOrderReplay(meter *guard.Meter, r *tokenReplay, n int) error {
	if len(c.Order) != n {
		return invalidf("topological order covers %d of %d tokens", len(c.Order), n)
	}
	pos := make([]int64, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, k := range c.Order {
		if k < 0 || k >= n || pos[k] >= 0 {
			return invalidf("topological order is not a permutation of the tokens")
		}
		pos[k] = int64(i)
	}
	if err := r.walk(meter, 1, zeroStart); err != nil {
		return err
	}
	m0 := int64(0)
	for k := 0; k < n; k++ {
		if f := r.final(k, 0); !f.IsNegInf() {
			m0 = max(m0, f.Int())
		}
	}
	b, ok := rat.AddChecked(m0, 1)
	for k := range pos {
		if ok {
			pos[k], ok = rat.MulChecked(b, pos[k])
		}
	}
	if !ok {
		return invalidf("order shift (%d+1)·%d overflows int64", m0, n)
	}
	if err := r.walk(meter, 1, func(k, _ int) maxplus.T { return maxplus.FromInt(pos[k]) }); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if f := r.final(i, 0); !f.IsNegInf() && f.Int() >= pos[i] {
			return invalidf("token %d depends on a token at or after it in the order: the token dependencies have a cycle", i)
		}
	}
	return nil
}

// matrixRef enumerates the precedence graph of an iteration matrix:
// node per token, and for each finite entry At(i, j) an edge j→i of
// weight At(i, j) and delay 1 (each matrix application is one
// iteration). The producer extracts the matrix anchor's witnesses from
// it; the checker never builds it.
func matrixRef(m *maxplus.Matrix) (int, []refEdge) {
	n := m.Size()
	var edges []refEdge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if e := m.At(i, j); !e.IsNegInf() {
				edges = append(edges, refEdge{from: j, to: i, w: e.Int(), d: 1})
			}
		}
	}
	return n, edges
}

// hsdfRef enumerates the precedence graph of a classical conversion,
// pinning what can be re-derived from g: the graph must be homogeneous,
// its node count must equal Σq, and each node maps back to the original
// actor whose block of q consecutive copies contains it (the layout of
// the traditional conversion), which pins every edge weight to that
// actor's execution time in g.
func hsdfRef(g *sdf.Graph, h *sdf.Graph, q []int64) (int, []refEdge, error) {
	if !h.IsHSDF() {
		return 0, nil, invalidf("hsdf anchor has a rate different from 1")
	}
	total := int64(0)
	for _, copies := range q {
		next, ok := rat.AddChecked(total, copies)
		if !ok {
			return 0, nil, invalidf("iteration length Σq overflows int64")
		}
		total = next
	}
	if int64(h.NumActors()) != total {
		return 0, nil, invalidf("hsdf anchor has %d nodes, the iteration length is %d", h.NumActors(), total)
	}
	actorOf := make([]sdf.ActorID, 0, h.NumActors())
	for a, copies := range q {
		for i := int64(0); i < copies; i++ {
			actorOf = append(actorOf, sdf.ActorID(a))
		}
	}
	edges := make([]refEdge, 0, h.NumChannels())
	for _, ch := range h.Channels() {
		w := g.Actor(actorOf[ch.Src]).Exec
		edges = append(edges, refEdge{from: int(ch.Src), to: int(ch.Dst), w: w, d: int64(ch.Initial)})
	}
	return h.NumActors(), edges, nil
}

// checkPotentials verifies the feasibility witness: for every edge,
// p[from] + w·den − num·d ≤ p[to], in overflow-checked arithmetic.
func checkPotentials(nodes int, edges []refEdge, p []int64, period rat.Rat) error {
	if len(p) != nodes {
		return invalidf("potential witness covers %d of %d nodes", len(p), nodes)
	}
	num, den := period.Num(), period.Den()
	for i, e := range edges {
		s, err := scaledWeight(e, num, den)
		if err != nil {
			return err
		}
		lhs, ok := rat.AddChecked(p[e.from], s)
		if !ok {
			return invalidf("potential inequality of edge %d overflows int64", i)
		}
		if lhs > p[e.to] {
			return invalidf("edge %d (%d->%d, w=%d, d=%d) violates feasibility: p[%d]=%d + %d > p[%d]=%d — some cycle exceeds the claimed period %v",
				i, e.from, e.to, e.w, e.d, e.from, p[e.from], s, e.to, p[e.to], period)
		}
	}
	return nil
}

// scaledWeight returns w·den − num·d, the edge weight of the reference
// graph rescaled so that a cycle meets the claimed period exactly when
// its scaled weight sums to zero.
func scaledWeight(e refEdge, num, den int64) (int64, error) {
	wd, ok1 := rat.MulChecked(e.w, den)
	nd, ok2 := rat.MulChecked(num, e.d)
	if !ok1 || !ok2 {
		return 0, invalidf("scaled weight of edge %d->%d overflows int64", e.from, e.to)
	}
	s, ok := rat.AddChecked(wd, -nd)
	if !ok {
		return 0, invalidf("scaled weight of edge %d->%d overflows int64", e.from, e.to)
	}
	return s, nil
}

// checkCycle verifies the critical-cycle witness: the edge indices form
// a closed walk with at least one unit of delay whose ratio Σw/Σd
// equals the claimed period exactly.
func checkCycle(edges []refEdge, cycle []int, period rat.Rat) error {
	if len(cycle) == 0 {
		return invalidf("critical-cycle witness is empty")
	}
	sumW, sumD := int64(0), int64(0)
	for k, idx := range cycle {
		if idx < 0 || idx >= len(edges) {
			return invalidf("critical-cycle witness references unknown edge %d", idx)
		}
		e := edges[idx]
		next := edges[cycle[(k+1)%len(cycle)]]
		if e.to != next.from {
			return invalidf("critical-cycle witness is not a closed walk: edge %d ends at node %d, next starts at %d",
				idx, e.to, next.from)
		}
		var ok bool
		if sumW, ok = rat.AddChecked(sumW, e.w); !ok {
			return invalidf("critical-cycle weight overflows int64")
		}
		if sumD, ok = rat.AddChecked(sumD, e.d); !ok {
			return invalidf("critical-cycle delay overflows int64")
		}
	}
	if sumD < 1 {
		return invalidf("critical-cycle witness carries no delay (Σd = %d)", sumD)
	}
	mean, err := rat.New(sumW, sumD)
	if err != nil {
		return invalidf("critical-cycle ratio %d/%d: %v", sumW, sumD, err)
	}
	if !mean.Equal(period) {
		return invalidf("critical cycle attains %v, claimed period is %v", mean, period)
	}
	return nil
}

// checkTopoOrder verifies the unboundedness witness: order is a
// permutation of the nodes and every edge goes strictly forward, so the
// reference graph is acyclic and no cycle constrains the steady state.
func checkTopoOrder(nodes int, edges []refEdge, order []int) error {
	if len(order) != nodes {
		return invalidf("topological order covers %d of %d nodes", len(order), nodes)
	}
	seen := make([]bool, nodes)
	for _, v := range order {
		if v < 0 || v >= nodes || seen[v] {
			return invalidf("topological order is not a permutation of the nodes")
		}
		seen[v] = true
	}
	pos := make([]int, nodes)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range edges {
		if pos[e.from] >= pos[e.to] {
			return invalidf("edge %d->%d violates the topological order: the reference graph has a cycle", e.from, e.to)
		}
	}
	return nil
}

// extractPotentials derives the upper-bound witness by Bellman–Ford
// longest paths over the scaled weights from an implicit all-zero
// source. It succeeds exactly when no cycle of the reference graph has
// a ratio above the claimed period: with every scaled cycle weight ≤ 0
// the relaxation stabilises within `nodes` rounds.
func extractPotentials(ctx context.Context, nodes int, edges []refEdge, period rat.Rat) ([]int64, []int64, error) {
	meter := guard.NewMeter(ctx, "verify")
	meter.Phase("witness-extraction")
	num, den := period.Num(), period.Den()
	scaled := make([]int64, len(edges))
	for i, e := range edges {
		s, err := scaledWeight(e, num, den)
		if err != nil {
			return nil, nil, err
		}
		scaled[i] = s
	}
	p := make([]int64, nodes)
	for round := 0; ; round++ {
		if err := meter.States(int64(len(edges)) + 1); err != nil {
			return nil, nil, err
		}
		changed := false
		for i, e := range edges {
			cand, ok := rat.AddChecked(p[e.from], scaled[i])
			if !ok {
				return nil, nil, invalidf("potential extraction overflows int64")
			}
			if cand > p[e.to] {
				p[e.to] = cand
				changed = true
			}
		}
		if !changed {
			return p, scaled, nil
		}
		if round >= nodes {
			return nil, nil, invalidf("claimed period %v is below some cycle ratio of the reference graph", period)
		}
	}
}

// extractWitness derives the (Potentials, Cycle) pair of an HSDF
// certificate: the potentials, then a critical cycle among their
// tight edges. It fails exactly when the claimed period is not the
// maximum cycle ratio of the reference graph.
func extractWitness(ctx context.Context, nodes int, edges []refEdge, period rat.Rat) ([]int64, []int, error) {
	p, scaled, err := extractPotentials(ctx, nodes, edges, period)
	if err != nil {
		return nil, nil, err
	}
	cycle, err := tightCycle(nodes, edges, p, scaled, period)
	if err != nil {
		return nil, nil, err
	}
	return p, cycle, nil
}

// tightCycle finds a critical cycle among the edges that are tight
// under the potentials p (scaled[i] is edge i's scaled weight): every
// closed walk of tight edges has scaled weight exactly zero, so any such
// walk through a delay-carrying edge attains the claimed period. It
// fails exactly when every cycle is strictly below the period.
func tightCycle(nodes int, edges []refEdge, p, scaled []int64, period rat.Rat) ([]int, error) {
	tight := make([][]int, nodes) // node -> outgoing tight edge indices
	for i, e := range edges {
		if p[e.from]+scaled[i] == p[e.to] {
			tight[e.from] = append(tight[e.from], i)
		}
	}
	for i, e := range edges {
		if e.d < 1 || p[e.from]+scaled[i] != p[e.to] {
			continue
		}
		if e.from == e.to {
			return []int{i}, nil
		}
		if back, ok := tightPath(edges, tight, e.to, e.from); ok {
			return append([]int{i}, back...), nil
		}
	}
	return nil, invalidf("claimed period %v is above every cycle ratio of the reference graph", period)
}

// tightPath finds a path of tight edges from src to dst (BFS), returned
// as edge indices.
func tightPath(edges []refEdge, tight [][]int, src, dst int) ([]int, bool) {
	parentEdge := make(map[int]int) // node -> edge index that reached it
	queue := []int{src}
	visited := map[int]bool{src: true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			var path []int
			for v := dst; v != src; {
				idx := parentEdge[v]
				path = append(path, idx)
				v = edges[idx].from
			}
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			return path, true
		}
		for _, idx := range tight[u] {
			v := edges[idx].to
			if !visited[v] {
				visited[v] = true
				parentEdge[v] = idx
				queue = append(queue, v)
			}
		}
	}
	return nil, false
}

// extractTopoOrder derives the unboundedness witness (Kahn's
// algorithm); it fails when the reference graph has a cycle.
func extractTopoOrder(nodes int, edges []refEdge) ([]int, error) {
	indeg := make([]int, nodes)
	adj := make([][]int, nodes)
	for _, e := range edges {
		indeg[e.to]++
		adj[e.from] = append(adj[e.from], e.to)
	}
	order := make([]int, 0, nodes)
	for v := 0; v < nodes; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range adj[order[head]] {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != nodes {
		return nil, invalidf("unbounded claim on a reference graph with a cycle")
	}
	return order, nil
}

// NewMatrixThroughputCert assembles and proves a matrix-anchored
// throughput certificate: m must be g's iteration matrix computed along
// sched, q its repetition vector, (unbounded, period) the engine's
// claim, and critical the tokens of the cycle Howard's iteration ended
// on (maxplus CriticalCycle, in cycle order), or nil to search the
// potentials' tight edges for one. The potentials come from
// Bellman–Ford over m, and every edge of a critical cycle is tight
// under them. Construction fails — and with it certification — exactly
// when the claim is not the maximum cycle mean of m, or critical is not
// a cycle attaining it.
func NewMatrixThroughputCert(ctx context.Context, m *maxplus.Matrix, sched []sdf.ActorID, q []int64, unbounded bool, period rat.Rat, critical []int) (*ThroughputCert, error) {
	cert := &ThroughputCert{Unbounded: unbounded, Period: period, Q: q, Schedule: sched}
	nodes, edges := matrixRef(m)
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
	if critical == nil {
		cycle, err := tightCycle(nodes, edges, p, scaled, period)
		if err != nil {
			return nil, err
		}
		for _, i := range cycle {
			critical = append(critical, edges[i].from)
		}
	}
	for i, from := range critical {
		to := critical[(i+1)%len(critical)]
		w := m.At(to, from)
		if w.IsNegInf() {
			return nil, invalidf("critical cycle steps from token %d to %d along no matrix entry", from, to)
		}
		s, err := scaledWeight(refEdge{from: from, to: to, w: w.Int(), d: 1}, period.Num(), period.Den())
		if err != nil {
			return nil, err
		}
		if p[from]+s != p[to] {
			return nil, invalidf("claimed period %v is above the critical cycle's mean", period)
		}
	}
	cert.Potentials, cert.Critical = p, critical
	return cert, nil
}

// NewHSDFThroughputCert assembles and proves an HSDF-anchored
// throughput certificate over the classical conversion h of g.
func NewHSDFThroughputCert(ctx context.Context, g *sdf.Graph, h *sdf.Graph, q []int64, unbounded bool, period rat.Rat) (*ThroughputCert, error) {
	cert := &ThroughputCert{Unbounded: unbounded, Period: period, Q: q, HSDF: h}
	nodes, edges, err := hsdfRef(g, h, q)
	if err != nil {
		return nil, err
	}
	if cert.Unbounded {
		order, err := extractTopoOrder(nodes, edges)
		if err != nil {
			return nil, err
		}
		cert.Order = order
		return cert, nil
	}
	pot, cycle, err := extractWitness(ctx, nodes, edges, cert.Period)
	if err != nil {
		return nil, err
	}
	cert.Potentials, cert.Cycle = pot, cycle
	return cert, nil
}
