package verify

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/testutil"
)

// refMatrixCheck is the column-at-a-time MatrixCert checker that the
// lane-batched Check replaced, kept as the reference of the
// differential test: the same replays, one full schedule walk and one
// growing token slice per column.
func refMatrixCheck(ctx context.Context, c *MatrixCert, g *sdf.Graph) error {
	if c.Matrix == nil {
		return invalidf("matrix certificate carries no matrix")
	}
	n := g.TotalInitialTokens()
	if c.Matrix.Size() != n {
		return invalidf("matrix dimension %d, graph has %d initial tokens", c.Matrix.Size(), n)
	}
	if err := (&ScheduleCert{Schedule: c.Schedule}).Check(ctx, g); err != nil {
		return err
	}
	zero := make([]maxplus.T, n)
	final, err := replayTokens(ctx, g, c.Schedule, zero)
	if err != nil {
		return err
	}
	m0 := int64(0)
	for k := 0; k < n; k++ {
		rowMax := maxplus.NegInf
		for j := 0; j < n; j++ {
			rowMax = rowMax.Max(c.Matrix.At(k, j))
		}
		if rowMax.Cmp(final[k]) != 0 {
			return invalidf("row %d: claimed maximum %v, concrete iteration produced %v", k, rowMax, final[k])
		}
		if !final[k].IsNegInf() && final[k].Int() > m0 {
			m0 = final[k].Int()
		}
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			if e := c.Matrix.At(k, j); !e.IsNegInf() && (e.Int() < 0 || e.Int() > m0) {
				return invalidf("entry (%d,%d) = %v outside the feasible range [0, %d]", k, j, e, m0)
			}
		}
	}
	if !c.ExhaustiveFor(g) {
		return nil
	}
	b, ok := rat.MulChecked(m0, 2)
	if ok {
		b, ok = rat.AddChecked(b, 1)
	}
	if !ok {
		return invalidf("column-recovery shift 2·%d+1 overflows int64", m0)
	}
	start := make([]maxplus.T, n)
	for i := 0; i < n; i++ {
		for j := range start {
			start[j] = 0
		}
		start[i] = maxplus.FromInt(b)
		final, err := replayTokens(ctx, g, c.Schedule, start)
		if err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			got := maxplus.NegInf
			if !final[k].IsNegInf() && final[k].Int() >= b {
				got = maxplus.FromInt(final[k].Int() - b)
			}
			if want := c.Matrix.At(k, i); got.Cmp(want) != 0 {
				return invalidf("entry (%d,%d): claimed %v, column replay recovered %v", k, i, want, got)
			}
		}
	}
	return nil
}

// replayTokens executes one concrete iteration of sched with the given
// initial-token time stamps (global channel-order numbering, front of
// each FIFO first) and returns the final token time stamps in the same
// numbering.
func replayTokens(ctx context.Context, g *sdf.Graph, sched []sdf.ActorID, start []maxplus.T) ([]maxplus.T, error) {
	meter := guard.NewMeter(ctx, "verify")
	meter.Phase("token-replay")
	queues := make([][]maxplus.T, g.NumChannels())
	idx := 0
	for i, ch := range g.Channels() {
		for t := 0; t < ch.Initial; t++ {
			queues[i] = append(queues[i], start[idx])
			idx++
		}
	}
	inCh := make([][]sdf.ChannelID, g.NumActors())
	outCh := make([][]sdf.ChannelID, g.NumActors())
	for i := range g.Channels() {
		id := sdf.ChannelID(i)
		ch := g.Channel(id)
		inCh[ch.Dst] = append(inCh[ch.Dst], id)
		outCh[ch.Src] = append(outCh[ch.Src], id)
	}
	for pos, a := range sched {
		if err := meter.Tick(1); err != nil {
			return nil, err
		}
		at := maxplus.NegInf
		for _, id := range inCh[a] {
			ch := g.Channel(id)
			q := queues[id]
			if len(q) < ch.Cons {
				return nil, invalidf("token replay step %d underflows channel %s -> %s",
					pos, g.Actor(ch.Src).Name, g.Actor(ch.Dst).Name)
			}
			for t := 0; t < ch.Cons; t++ {
				at = at.Max(q[t])
			}
			queues[id] = q[ch.Cons:]
		}
		end := maxplus.NegInf
		if !at.IsNegInf() {
			sum, ok := rat.AddChecked(at.Int(), g.Actor(a).Exec)
			if !ok {
				return nil, invalidf("token replay step %d overflows a time stamp", pos)
			}
			end = maxplus.FromInt(sum)
		}
		for _, id := range outCh[a] {
			ch := g.Channel(id)
			for t := 0; t < ch.Prod; t++ {
				queues[id] = append(queues[id], end)
			}
		}
	}
	final := make([]maxplus.T, 0, len(start))
	for i, ch := range g.Channels() {
		if len(queues[i]) != ch.Initial {
			return nil, invalidf("channel %s -> %s ends the replay with %d tokens, want %d",
				g.Actor(ch.Src).Name, g.Actor(ch.Dst).Name, len(queues[i]), ch.Initial)
		}
		final = append(final, queues[i]...)
	}
	return final, nil
}

// refThroughputCert is the matrix-anchored throughput certificate as it
// stood before it became schedule-anchored: it carried the N×N matrix,
// bound to the graph by MatrixCert's replays (exhaustive only while
// N·Σq ≤ 2^22), with potentials and a critical cycle of reference edges
// over it. It is kept, with newRefThroughputCert and
// refThroughputCheck, as the reference of
// TestThroughputCertMatchesReference.
type refThroughputCert struct {
	Unbounded  bool
	Period     rat.Rat
	Q          []int64
	Matrix     *MatrixCert
	Potentials []int64
	Cycle      []int
	Order      []int
}

func newRefThroughputCert(ctx context.Context, mc *MatrixCert, q []int64, unbounded bool, period rat.Rat) (*refThroughputCert, error) {
	cert := &refThroughputCert{Unbounded: unbounded, Period: period, Q: q, Matrix: mc}
	nodes, edges := matrixRef(mc.Matrix)
	var err error
	if unbounded {
		cert.Order, err = extractTopoOrder(nodes, edges)
	} else {
		cert.Potentials, cert.Cycle, err = extractWitness(ctx, nodes, edges, period)
	}
	if err != nil {
		return nil, err
	}
	return cert, nil
}

func refThroughputCheck(ctx context.Context, c *refThroughputCert, g *sdf.Graph) error {
	if err := checkRepetition(g, c.Q); err != nil {
		return err
	}
	if err := c.Matrix.Check(ctx, g); err != nil {
		return err
	}
	nodes, edges := matrixRef(c.Matrix.Matrix)
	if c.Unbounded {
		return checkTopoOrder(nodes, edges, c.Order)
	}
	if err := checkPotentials(nodes, edges, c.Potentials, c.Period); err != nil {
		return err
	}
	return checkCycle(edges, c.Cycle, c.Period)
}

// The node-graph checks and the witness extraction below are the
// references' own: the matrix and SADF references check potentials,
// cycles and orders over explicit edge lists.

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

// engineCerts runs Algorithm 1 and Howard on g and certifies the answer
// both ways: with the schedule anchor and with the reference's matrix.
func engineCerts(t *testing.T, g *sdf.Graph) (*core.SymbolicResult, *ThroughputCert, *refThroughputCert) {
	t.Helper()
	ctx := context.Background()
	r, err := core.SymbolicIteration(g)
	if err != nil {
		t.Fatalf("%s: symbolic iteration: %v", g.Name(), err)
	}
	lam, cyc, hasCycle, err := r.Matrix.CriticalCycle()
	if err != nil {
		t.Fatalf("%s: critical cycle: %v", g.Name(), err)
	}
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := NewMatrixThroughputCert(ctx, r.Matrix, r.Schedule, q, !hasCycle, lam, cyc)
	if err != nil {
		t.Fatalf("%s: certificate: %v", g.Name(), err)
	}
	ref, err := newRefThroughputCert(ctx, &MatrixCert{Matrix: r.Matrix, Schedule: r.Schedule}, q, !hasCycle, lam)
	if err != nil {
		t.Fatalf("%s: reference certificate: %v", g.Name(), err)
	}
	return r, cert, ref
}

// acyclicGraphs are seeded random DAGs with initial tokens on their
// channels: their token dependencies have no cycle, so their
// certificates claim unbounded throughput.
func acyclicGraphs(t *testing.T, rng *rand.Rand, count int) []*sdf.Graph {
	t.Helper()
	var out []*sdf.Graph
	for len(out) < count {
		base, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(6), MaxRep: 1 + rng.Int63n(4), MaxExec: 9, Chords: rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		g := sdf.NewGraph(fmt.Sprintf("acyclic-%d", len(out)))
		for _, a := range base.Actors() {
			g.MustAddActor(a.Name, a.Exec)
		}
		for _, c := range base.Channels() {
			if c.Src < c.Dst { // drop the feedback channel
				g.MustAddChannel(c.Src, c.Dst, c.Prod, c.Cons, rng.Intn(2*c.Cons+1))
			}
		}
		if g.TotalInitialTokens() > 1 {
			out = append(out, g)
		}
	}
	return out
}

// TestThroughputCertMatchesReference pins the schedule-anchored check to
// the matrix-anchored reference: every engine certificate the reference
// accepts, the new check accepts; and a tampered potential vector is
// rejected exactly when the reference's feasibility check rejects it.
func TestThroughputCertMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(26))
	graphs := append(differentialGraphs(t), acyclicGraphs(t, rng, 12)...)
	graphs = append(graphs, testutil.N2001Graph())
	accepted, rejected, unbounded := 0, 0, 0
	for _, g := range graphs {
		r, cert, ref := engineCerts(t, g)
		if err := refThroughputCheck(ctx, ref, g); err != nil {
			t.Fatalf("%s: reference rejects the engine certificate: %v", g.Name(), err)
		}
		if err := cert.Check(ctx, g); err != nil {
			t.Fatalf("%s: engine certificate rejected, the reference accepts it: %v", g.Name(), err)
		}
		if cert.Unbounded {
			unbounded++
			continue
		}
		nodes, edges := matrixRef(r.Matrix)
		for trial := 0; trial < 6; trial++ {
			p := append([]int64(nil), cert.Potentials...)
			delta := []int64{-1, 1, -1 << 20, 1 << 20}[rng.Intn(4)]
			switch trial % 3 {
			case 0: // one token
				p[rng.Intn(len(p))] += delta
			case 1: // one critical token
				p[cert.Critical[rng.Intn(len(cert.Critical))]] += delta
			default: // a seeded subset
				for i := range p {
					if rng.Intn(3) == 0 {
						p[i] += delta
					}
				}
			}
			tampered := *cert
			tampered.Potentials = p
			got, want := tampered.Check(ctx, g), checkPotentials(nodes, edges, p, cert.Period)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s: potential tamper %d: check = %v, reference feasibility = %v", g.Name(), trial, got, want)
			}
			if got == nil {
				accepted++
			} else {
				rejected++
			}
		}
	}
	t.Logf("potential tampers: %d accepted, %d rejected by both; %d unbounded certificates", accepted, rejected, unbounded)
	if accepted == 0 || rejected == 0 || unbounded == 0 {
		t.Errorf("potential tampers: %d accepted, %d rejected, %d unbounded; want every kind", accepted, rejected, unbounded)
	}
}

// deepFIFOGraph has a 20000-token peak on two channels and 28 initial
// tokens, so the lane buffer cap, not the token count, bounds the lanes
// per walk (and the columns take two walks).
func deepFIFOGraph() *sdf.Graph {
	g := sdf.NewGraph("deep-fifo")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 2)
	g.MustAddChannel(a, a, 1, 1, 27)
	g.MustAddChannel(a, b, 20000, 1, 0)
	g.MustAddChannel(b, c, 1, 20000, 0)
	g.MustAddChannel(c, c, 1, 1, 1)
	return g
}

// differentialGraphs is the input set of the replay differential test:
// seeded random multirate and regular graphs, every Table-1 graph, and
// the deep-FIFO graph.
func differentialGraphs(t *testing.T) []*sdf.Graph {
	t.Helper()
	var out []*sdf.Graph
	rng := rand.New(rand.NewSource(1515))
	for i := 0; i < 24; i++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(6), MaxRep: 1 + rng.Int63n(4), MaxExec: 9,
			Chords: rng.Intn(4), SelfLoop: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.SetName(fmt.Sprintf("random-%d", i))
		out = append(out, g)
	}
	for i := 0; i < 12; i++ {
		g, err := gen.RandomRegularMultirate(rng, gen.RegularOptions{
			Groups: 1 + rng.Intn(3), Copies: 2 + rng.Intn(4), Links: rng.Intn(5), MaxExec: 7,
		}, 1+rng.Int63n(3))
		if err != nil {
			t.Fatal(err)
		}
		g.SetName(fmt.Sprintf("regular-%d", i))
		out = append(out, g)
	}
	for _, c := range benchmarks.All() {
		out = append(out, c.Graph())
	}
	return append(out, deepFIFOGraph())
}

// tamperings are the four matrix corruptions of the differential test,
// each applied at a seeded position. A tampering that finds no entry of
// the kind it needs leaves the matrix unchanged.
var tamperings = []struct {
	name  string
	apply func(m *maxplus.Matrix, rng *rand.Rand)
}{
	{"finite+1", func(m *maxplus.Matrix, rng *rand.Rand) {
		if k, j, ok := pickEntry(m, rng, false); ok {
			m.Set(k, j, maxplus.FromInt(m.At(k, j).Int()+1))
		}
	}},
	{"finite->-inf", func(m *maxplus.Matrix, rng *rand.Rand) {
		if k, j, ok := pickEntry(m, rng, false); ok {
			m.Set(k, j, maxplus.NegInf)
		}
	}},
	{"-inf->0", func(m *maxplus.Matrix, rng *rand.Rand) {
		if k, j, ok := pickEntry(m, rng, true); ok {
			m.Set(k, j, 0)
		}
	}},
	{"swap-columns", func(m *maxplus.Matrix, rng *rand.Rand) {
		n := m.Size()
		if n < 2 {
			return
		}
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		for k := 0; k < n; k++ {
			a, b := m.At(k, i), m.At(k, j)
			m.Set(k, i, b)
			m.Set(k, j, a)
		}
	}},
}

// pickEntry returns a seeded entry that is −∞ (negInf) or finite.
func pickEntry(m *maxplus.Matrix, rng *rand.Rand, negInf bool) (int, int, bool) {
	var cand [][2]int
	for k := 0; k < m.Size(); k++ {
		for j := 0; j < m.Size(); j++ {
			if m.At(k, j).IsNegInf() == negInf {
				cand = append(cand, [2]int{k, j})
			}
		}
	}
	if len(cand) == 0 {
		return 0, 0, false
	}
	e := cand[rng.Intn(len(cand))]
	return e[0], e[1], true
}

// TestMatrixCertMatchesReference pins the lane-batched replay to the
// column-at-a-time reference: on every input graph, for the engine's
// matrix and for each tampering at several positions, both checkers
// accept or both reject.
func TestMatrixCertMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	accepted, rejected := 0, 0
	for _, g := range differentialGraphs(t) {
		r, err := core.SymbolicIteration(g)
		if err != nil {
			t.Fatalf("%s: symbolic iteration: %v", g.Name(), err)
		}
		if err := (&MatrixCert{Matrix: r.Matrix, Schedule: r.Schedule}).Check(ctx, g); err != nil {
			t.Fatalf("%s: engine matrix rejected: %v", g.Name(), err)
		}
		for _, tm := range tamperings {
			for pos := 0; pos < 3; pos++ {
				m := r.Matrix.Clone()
				tm.apply(m, rng)
				c := &MatrixCert{Matrix: m, Schedule: r.Schedule}
				got, want := c.Check(ctx, g), refMatrixCheck(ctx, c, g)
				if (got == nil) != (want == nil) {
					t.Errorf("%s, %s #%d: lane-batched check = %v, reference = %v", g.Name(), tm.name, pos, got, want)
				}
				if want == nil {
					accepted++
				} else {
					rejected++
				}
			}
		}
	}
	t.Logf("tampered inputs: %d accepted, %d rejected by both checkers", accepted, rejected)
	// Both outcomes must occur, or the comparison proves nothing.
	if accepted == 0 || rejected == 0 {
		t.Errorf("tampered inputs: %d accepted, %d rejected; want both kinds", accepted, rejected)
	}
}

// TestTokenReplayLaneCap pins the lane cap: the deep-FIFO graph runs
// fewer lanes per walk than it has tokens, and more than one walk.
func TestTokenReplayLaneCap(t *testing.T) {
	g := deepFIFOGraph()
	r, err := core.SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTokenReplay(guard.NewMeter(context.Background(), "verify"), g, r.Schedule, maxReplayLanes)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.TotalInitialTokens(); tr.lanes >= n || tr.lanes < 2 {
		t.Fatalf("lanes = %d for %d tokens, want the buffer cap to bind", tr.lanes, n)
	}
}

var benchCheckErr error

// BenchmarkMatrixCertCheck times one full MatrixCert.Check (schedule
// replay, zero replay, every column replay) on three Table-1 graphs.
func BenchmarkMatrixCertCheck(b *testing.B) {
	for _, c := range []struct {
		name  string
		graph func() *sdf.Graph
	}{
		{"satellite", benchmarks.Satellite},
		{"h263-decoder", benchmarks.H263Decoder},
		{"sample-rate-conv", benchmarks.SampleRateConverter},
	} {
		g := c.graph()
		r, err := core.SymbolicIteration(g)
		if err != nil {
			b.Fatal(err)
		}
		cert := &MatrixCert{Matrix: r.Matrix, Schedule: r.Schedule}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCheckErr = cert.Check(context.Background(), g)
			}
			if benchCheckErr != nil {
				b.Fatal(benchCheckErr)
			}
		})
	}
}

// AcyclicGraphs exports acyclicGraphs to the differential tests of
// package verify_test.
var AcyclicGraphs = acyclicGraphs
