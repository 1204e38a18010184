package verify

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/transform"
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
// unboundedness) of a timed SDF graph. The claim is anchored in the
// iteration matrix M of Algorithm 1, which the certificate does not
// carry: it carries the Schedule of one iteration instead. Replaying
// that schedule from initial token times x ends the tokens at M ⊗ x, so
// single-lane replays from the witnesses check the claim against g
// itself, at every size. Every engine emits this one certificate; the
// HSDF engine maps its witnesses over the classical conversion onto g's
// initial tokens (NewHSDFThroughputCert).
//
// A bounded claim pairs two witnesses over the initial tokens. The
// upper bound is Potentials: integers p, scaled by den, with
// den·M_ij + p_j ≤ p_i + num for every finite entry, so no cycle of M
// has a mean above Λ. The lower bound is Critical, the token set of a
// cycle that attains Λ. An unbounded claim instead carries Order, a
// topological order proving the token dependencies have no cycle at
// all.
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

	// Potentials is the upper-bound witness, one entry per initial
	// token; nil when Unbounded.
	Potentials []int64
	// Critical is the lower-bound witness: the initial tokens of a
	// critical cycle; nil when Unbounded.
	Critical []int
	// Order is the unboundedness witness, a permutation of the initial
	// tokens; nil unless Unbounded.
	Order []int
}

// Kind returns KindThroughput.
func (c *ThroughputCert) Kind() Kind { return KindThroughput }

// Engine-facing description, used by the CLI's -verify output.
func (c *ThroughputCert) String() string {
	if c.Unbounded {
		return fmt.Sprintf("throughput certificate [matrix anchor]: unbounded (topological order over %d tokens)", len(c.Order))
	}
	return fmt.Sprintf("throughput certificate [matrix anchor]: period %v (critical cycle over %d tokens, %d potentials)",
		c.Period, len(c.Critical), len(c.Potentials))
}

// Check validates the witnesses against g with single-lane replays of
// the certified schedule, never forming M: an iteration replayed from
// token times x ends token i at (M ⊗ x)_i = max_j (M_ij + x_j).
func (c *ThroughputCert) Check(ctx context.Context, g *sdf.Graph) error {
	meter := guard.NewMeter(ctx, "verify")
	// The count walk certifies the firing counts as the minimal
	// repetition vector, which is unique: Q is certified by equality
	// with them.
	r, err := newTokenReplay(meter, g, c.Schedule, 1)
	if err != nil {
		return err
	}
	if !slices.Equal(r.counts, c.Q) {
		return invalidf("repetition vector %v differs from the schedule's firing counts", c.Q)
	}
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
	for i, v := range p {
		// Every p_i + num below is then exact.
		if _, ok := rat.AddChecked(v, num); !ok || maxplus.FromInt(v).IsNegInf() {
			return invalidf("potential %d of token %d is not a finite time", v, i)
		}
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
		if f := r.final(i, 0); !f.IsNegInf() && f.Int() > p[i]+num {
			return invalidf("token %d ends the replay from its potential at %d, above p+num = %d: some cycle exceeds the claimed period %v",
				i, f.Int(), p[i]+num, c.Period)
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
		if f := r.final(i, 0); f.IsNegInf() || f.Int() < p[i]+num {
			return invalidf("critical token %d ends the replay from the critical set at %v, below p+num = %d: no cycle attains the claimed period %v",
				i, f, p[i]+num, c.Period)
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

// NewHSDFThroughputCert assembles the HSDF engine's certificate: conv
// must be g's classical conversion (transform.Convert), sched one
// iteration schedule of g, q its repetition vector, (unbounded, period)
// the claim Howard's iteration made on conv.HSDF and critical the nodes
// of the cycle it ended on, in cycle order. The node potentials p over
// the conversion come from Bellman–Ford; every witness is then mapped
// onto g's initial tokens through the conversion's provenance, so the
// certificate is the one the matrix engines emit and Check never sees
// the conversion:
//
//   - the token at FIFO position j of channel c is consumed by firing
//     f = ⌊j/cons⌋ of c's destination, that is by its copy f mod q(dst)
//     in iteration k = ⌊f/q(dst)⌋, and its potential is p(copy) + k·num;
//   - Critical holds the tokens the critical cycle carries across
//     iteration boundaries: each step keeps one dependency of g, whose
//     token with d delays sits at d consecutive boundaries;
//   - Order sorts the tokens by the position of their consumer in a
//     topological order of the conversion, later iteration first.
//
// The certificate holds one witness entry per initial token, and its
// check one ring slot per token, so the token count N is charged
// against the budget's MaxStates before anything is sized by it: under
// guard.Default the HSDF engine certifies at most 2^22 tokens, and a
// larger graph is refused with guard.ErrBudgetExceeded. DESIGN.md gives
// the argument why the mapped witnesses pass Check. A conversion that
// does not match g fails here with ErrInvalid or fails Check.
func NewHSDFThroughputCert(ctx context.Context, g *sdf.Graph, conv *transform.Conversion, sched []sdf.ActorID, q []int64,
	unbounded bool, period rat.Rat, critical []sdf.ActorID) (*ThroughputCert, error) {
	h := conv.HSDF
	if !h.IsHSDF() {
		return nil, invalidf("hsdf conversion has a rate different from 1")
	}
	if len(q) != g.NumActors() || len(conv.Copies) != len(q) {
		return nil, invalidf("repetition vector covers %d and the conversion %d of %d actors", len(q), len(conv.Copies), g.NumActors())
	}
	nodes, copies := h.NumActors(), 0
	for a, cs := range conv.Copies {
		if int64(len(cs)) != q[a] {
			return nil, invalidf("conversion has %d copies of actor %d, its repetition count is %d", len(cs), a, q[a])
		}
		for _, v := range cs {
			if v < 0 || int(v) >= nodes {
				return nil, invalidf("copy node %d lies outside the conversion", v)
			}
		}
		copies += len(cs)
	}
	if nodes != copies {
		return nil, invalidf("hsdf conversion has %d nodes, the iteration length is %d", nodes, copies)
	}
	if len(conv.Origins) != h.NumChannels() {
		return nil, invalidf("conversion records %d origins for %d channels", len(conv.Origins), h.NumChannels())
	}
	meter := guard.NewMeter(ctx, "verify")
	meter.Phase("witness-extraction")
	n := g.TotalInitialTokens()
	if err := meter.States(int64(n)); err != nil {
		return nil, fmt.Errorf("hsdf certificate over %d initial tokens: %w", n, err)
	}
	capacity, err := meter.Alloc(int64(n))
	if err != nil {
		return nil, err
	}
	// tokens visits the initial tokens in the global channel-order
	// numbering with the node that consumes each and the iteration of
	// that firing.
	tokens := func(visit func(v sdf.ActorID, k int64) error) error {
		for _, c := range g.Channels() {
			for j := 0; j < c.Initial; j++ {
				if err := meter.Tick(1); err != nil {
					return err
				}
				f := int64(j / c.Cons)
				if err := visit(conv.Copies[c.Dst][f%q[c.Dst]], f/q[c.Dst]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	edges := make([]refEdge, 0, h.NumChannels())
	for _, ch := range h.Channels() {
		edges = append(edges, refEdge{from: int(ch.Src), to: int(ch.Dst), w: h.Actor(ch.Src).Exec, d: int64(ch.Initial)})
	}
	cert := &ThroughputCert{Unbounded: unbounded, Period: period, Q: q, Schedule: sched}
	if unbounded {
		order, err := extractTopoOrder(nodes, edges)
		if err != nil {
			return nil, err
		}
		pos := make([]int, nodes)
		for i, v := range order {
			pos[v] = i
		}
		type key struct {
			pos  int
			iter int64
		}
		keys := make([]key, 0, capacity)
		cert.Order = make([]int, 0, capacity)
		if err := tokens(func(v sdf.ActorID, k int64) error {
			cert.Order = append(cert.Order, len(keys))
			keys = append(keys, key{pos[v], k})
			return nil
		}); err != nil {
			return nil, err
		}
		slices.SortFunc(cert.Order, func(a, b int) int {
			if c := cmp.Compare(keys[a].pos, keys[b].pos); c != 0 {
				return c
			}
			if c := cmp.Compare(keys[b].iter, keys[a].iter); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return cert, nil
	}
	p, _, err := extractPotentials(ctx, nodes, edges, period)
	if err != nil {
		return nil, err
	}
	cert.Potentials = make([]int64, 0, capacity)
	if err := tokens(func(v sdf.ActorID, k int64) error {
		shift, ok1 := rat.MulChecked(k, period.Num())
		pot, ok2 := rat.AddChecked(p[v], shift)
		if !ok1 || !ok2 {
			return invalidf("potential of token %d overflows int64", len(cert.Potentials))
		}
		cert.Potentials = append(cert.Potentials, pot)
		return nil
	}); err != nil {
		return nil, err
	}
	if cert.Critical, err = criticalTokens(g, conv, q, critical); err != nil {
		return nil, err
	}
	return cert, nil
}

// criticalTokens maps a cycle of conversion nodes onto the initial
// tokens of g it carries across iteration boundaries. Each step u→v is
// the conversion's one channel from u to v; its origin is the token of
// g it keeps, which with d delays sits at d consecutive boundaries, at
// FIFO positions Pos, Pos + q(dst)·cons, ….
func criticalTokens(g *sdf.Graph, conv *transform.Conversion, q []int64, cycle []sdf.ActorID) ([]int, error) {
	type step struct{ u, v sdf.ActorID }
	channel := make(map[step]int, len(cycle))
	for i, u := range cycle {
		channel[step{u, cycle[(i+1)%len(cycle)]}] = -1
	}
	for e, ch := range conv.HSDF.Channels() {
		if _, ok := channel[step{ch.Src, ch.Dst}]; ok {
			channel[step{ch.Src, ch.Dst}] = e
		}
	}
	tokBase, n := make([]int, g.NumChannels()), 0
	for id, c := range g.Channels() {
		tokBase[id] = n
		n += c.Initial
	}
	var tokens []int
	for i, u := range cycle {
		v := cycle[(i+1)%len(cycle)]
		e := channel[step{u, v}]
		if e < 0 {
			return nil, invalidf("critical cycle steps from node %d to node %d along no channel of the conversion", u, v)
		}
		o := conv.Origins[e]
		if o.Channel < 0 || int(o.Channel) >= g.NumChannels() {
			return nil, invalidf("conversion channel %d keeps a dependency of unknown channel %d", e, o.Channel)
		}
		c := g.Channel(o.Channel)
		stride, ok := rat.MulChecked(q[c.Dst], int64(c.Cons))
		j := int64(o.Pos)
		for t := 0; t < conv.HSDF.Channel(sdf.ChannelID(e)).Initial; t++ {
			if (!ok && t > 0) || j < 0 || j >= int64(c.Initial) {
				return nil, invalidf("critical cycle step %d->%d carries a token outside the initial tokens of its channel", u, v)
			}
			tokens = append(tokens, tokBase[o.Channel]+int(j))
			j += stride
		}
	}
	return tokens, nil
}
