package verify_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/maxplus"
	"repro/internal/mcm"
	"repro/internal/rat"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/serve"
	"repro/internal/testutil"
	"repro/internal/verify"
)

// poolModel draws model v of the seeded sadf-cold pool exactly as the
// served benchmark does: a ring of actors with one token per channel
// under scenarios that differ in execution times, and a random strongly
// connected FSM with self-loops, ring size and state count stratified
// over 8 to 1024 automaton nodes.
func poolModel(seed int64, v int) *sadf.Model {
	rng := func(salt, i int) *rand.Rand {
		return rand.New(rand.NewSource(seed*1_000_003 + int64(salt)*7_919_999 + int64(i)))
	}
	cell := rng(7, v/64).Perm(64)[v%64]
	r := rng(4, v)
	ring := min(4+4*(cell%8)+r.Intn(4), 32)
	states := min(2+4*(cell/8)+r.Intn(4), 32)
	scenarios := min(2+r.Intn(4), states)
	m := &sadf.Model{Name: fmt.Sprintf("ring%d-s%d-q%d", ring, scenarios, states)}
	for k := 0; k < scenarios; k++ {
		g := sdf.NewGraph(fmt.Sprintf("scn%d", k))
		for a := 0; a < ring; a++ {
			g.MustAddActor(fmt.Sprintf("A%d", a), 1+r.Int63n(9))
		}
		for a := 0; a < ring; a++ {
			g.MustAddChannelByName(fmt.Sprintf("A%d", a), fmt.Sprintf("A%d", (a+1)%ring), 1, 1, 1)
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fmt.Sprintf("s%d", k), Graph: g})
	}
	for q := 0; q < states; q++ {
		scn := q
		if q >= scenarios {
			scn = r.Intn(scenarios)
		}
		m.States = append(m.States, sadf.State{Name: fmt.Sprintf("q%d", q), Scenario: fmt.Sprintf("s%d", scn)})
	}
	seen := map[[2]int]bool{}
	addTrans := func(from, to int) {
		if !seen[[2]int{from, to}] {
			seen[[2]int{from, to}] = true
			m.Transitions = append(m.Transitions, sadf.Transition{From: fmt.Sprintf("q%d", from), To: fmt.Sprintf("q%d", to)})
		}
	}
	for q := 0; q < states; q++ {
		addTrans(q, (q+1)%states)
		if r.Intn(2) == 0 {
			addTrans(q, q)
		}
		for e := r.Intn(3); e > 0; e-- {
			addTrans(q, r.Intn(states))
		}
	}
	m.Initial = "q0"
	return m
}

// familyModel builds a model whose scenarios share the topology and
// rates of base and differ in execution times, over a random FSM of one
// to four states. A chain q0 → q1 → … keeps every state reachable; with
// acyclic set, only forward transitions are drawn, so the automaton has
// no cycle.
func familyModel(rng *rand.Rand, name string, base *sdf.Graph, acyclic bool) *sadf.Model {
	m := &sadf.Model{Name: name}
	scenarios := 1 + rng.Intn(3)
	for k := 0; k < scenarios; k++ {
		g := sdf.NewGraph(fmt.Sprintf("%s-%d", name, k))
		for _, a := range base.Actors() {
			g.MustAddActor(a.Name, rng.Int63n(10))
		}
		for _, c := range base.Channels() {
			g.MustAddChannel(c.Src, c.Dst, c.Prod, c.Cons, c.Initial)
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fmt.Sprintf("s%d", k), Graph: g})
	}
	states := 1 + rng.Intn(4)
	for q := 0; q < states; q++ {
		m.States = append(m.States, sadf.State{Name: fmt.Sprintf("q%d", q), Scenario: fmt.Sprintf("s%d", rng.Intn(scenarios))})
	}
	seen := map[[2]int]bool{}
	for q := 0; q < states; q++ {
		for to := 0; to < states; to++ {
			chain := to == q+1
			if chain || (!acyclic || to > q) && rng.Intn(3) == 0 {
				seen[[2]int{q, to}] = true
			}
		}
	}
	for q := 0; q < states; q++ {
		for to := 0; to < states; to++ {
			if seen[[2]int{q, to}] {
				m.Transitions = append(m.Transitions, sadf.Transition{From: fmt.Sprintf("q%d", q), To: fmt.Sprintf("q%d", to)})
			}
		}
	}
	m.Initial = "q0"
	return m
}

// dagWithTokens drops the feedback channel of a random graph and puts
// random initial tokens on the rest: the token dependencies have no
// cycle, so every automaton over it is acyclic.
func dagWithTokens(rng *rand.Rand, base *sdf.Graph) *sdf.Graph {
	g := sdf.NewGraph("dag")
	for _, a := range base.Actors() {
		g.MustAddActor(a.Name, a.Exec)
	}
	for _, c := range base.Channels() {
		if c.Src < c.Dst {
			g.MustAddChannel(c.Src, c.Dst, c.Prod, c.Cons, rng.Intn(2*c.Cons+1))
		}
	}
	return g
}

// diffModels is the differential set: the three seeded sadf-cold pools,
// the models of internal/sadf/testdata, multi-rate scenario families
// over cyclic and acyclic FSMs, and token DAGs.
func diffModels(t *testing.T) []*sadf.Model {
	t.Helper()
	var out []*sadf.Model
	for seed := int64(1); seed <= 3; seed++ {
		for v := 0; v < 256; v++ {
			out = append(out, poolModel(seed, v))
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "sadf", "testdata", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("sadf testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sdfio.ParseSADFText(string(text))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, m)
	}
	rng := rand.New(rand.NewSource(1404))
	for len(out) < 2100 {
		base, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 2 + rng.Intn(4), MaxRep: 1 + rng.Int63n(3), MaxExec: 9,
			Chords: rng.Intn(3), SelfLoop: rng.Intn(3) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		kind := len(out) % 4
		if kind == 3 {
			base = dagWithTokens(rng, base)
		}
		if base.TotalInitialTokens() == 0 || base.TotalInitialTokens() > 24 {
			continue
		}
		m := familyModel(rng, fmt.Sprintf("family%d", len(out)), base, kind == 2)
		if err := m.Validate(); err != nil {
			continue
		}
		out = append(out, m)
	}
	return out
}

// indices flattens m's FSM as sadf.Analyze does.
func indices(m *sadf.Model) (stateScenario []int, transitions [][2]int, initial int) {
	stateScenario = make([]int, len(m.States))
	for q, st := range m.States {
		stateScenario[q], _ = m.ScenarioIndex(st.Scenario)
	}
	transitions = make([][2]int, len(m.Transitions))
	for i, tr := range m.Transitions {
		from, _ := m.StateIndex(tr.From)
		to, _ := m.StateIndex(tr.To)
		transitions[i] = [2]int{from, to}
	}
	initial, _ = m.StateIndex(m.Initial)
	return stateScenario, transitions, initial
}

// reference is the analysis of a model as it stood before the
// certificate became schedule-anchored.
type reference struct {
	res   sadf.Result
	mats  []*maxplus.Matrix // scenario matrices in global token order
	edges []verify.SADFEdge
	cert  *verify.RefSADFCert
}

func analyzeReference(ctx context.Context, m *sadf.Model) (*reference, error) {
	graphs := m.Graphs()
	mats := make([]*maxplus.Matrix, len(graphs))
	mcs := make([]*verify.MatrixCert, len(graphs))
	for k, g := range graphs {
		sym, err := core.SymbolicIteration(g)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", k, err)
		}
		mcs[k] = &verify.MatrixCert{Matrix: sym.Matrix, Schedule: sym.Schedule}
		mats[k] = sym.Matrix.Permute(verify.SADFTokenPerm(g))
	}
	stateScenario, transitions, initial := indices(m)
	nodes, sedges, err := verify.RefSADFAutomaton(stateScenario, transitions, mats)
	if err != nil {
		return nil, err
	}
	edges := make([]mcm.Edge, len(sedges))
	for i, e := range sedges {
		edges[i] = mcm.Edge(e)
	}
	ratio, err := mcm.MaxCycleRatioEdges(context.Background(), nodes, edges)
	if err != nil {
		return nil, err
	}
	ref := &reference{mats: mats, edges: sedges}
	ref.res = sadf.Result{Unbounded: !ratio.HasCycle, Tokens: m.Tokens(), AutomatonNodes: nodes, AutomatonEdges: len(edges)}
	if ratio.HasCycle {
		ref.res.Period = ratio.CycleRatio
	}
	for _, v := range ratio.Critical {
		ref.res.CriticalStates = append(ref.res.CriticalStates, m.States[v/m.Tokens()].Name)
	}
	ref.cert, err = verify.NewRefSADFCert(ctx, m.Graphs(), m.ScenarioNames(), mcs,
		m.StateNames(), stateScenario, transitions, initial, ref.res.Unbounded, ref.res.Period)
	return ref, err
}

// diffCase is one model of the differential set, analysed both ways.
type diffCase struct {
	m    *sadf.Model
	res  *sadf.Result
	cert *verify.SADFCert
	ref  *reference
}

// eachDiffCase analyses every model of the differential set with
// sadf.Analyze and with the reference, and hands both to fn.
func eachDiffCase(t *testing.T, fn func(d *diffCase)) int {
	t.Helper()
	ctx := context.Background()
	models := diffModels(t)
	for _, m := range models {
		res, cert, err := sadf.Analyze(ctx, m)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", m.Name, err)
		}
		ref, err := analyzeReference(ctx, m)
		if err != nil {
			t.Fatalf("%s: reference: %v", m.Name, err)
		}
		fn(&diffCase{m: m, res: res, cert: cert, ref: ref})
	}
	return len(models)
}

// TestSADFCertMatchesReference pins the schedule-anchored certificate
// and the one-enumeration automaton to the matrix-carrying reference on
// the differential set: Analyze answers as the reference does, both
// automata list the same edges in the same order, every certificate the
// reference accepts the new check accepts, and seeded potential tampers
// are rejected exactly when the reference's potential check rejects
// them.
func TestSADFCertMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(28))
	bounded, unbounded, tampers, rejected := 0, 0, 0, 0
	total := eachDiffCase(t, func(d *diffCase) {
		m, res, ref := d.m, d.res, d.ref
		if res.Unbounded != ref.res.Unbounded || !res.Period.Equal(ref.res.Period) ||
			res.AutomatonNodes != ref.res.AutomatonNodes || res.AutomatonEdges != ref.res.AutomatonEdges ||
			!slices.Equal(res.CriticalStates, ref.res.CriticalStates) {
			t.Fatalf("%s: Analyze = %+v, reference = %+v", m.Name, *res, ref.res)
		}
		stateScenario, transitions, _ := indices(m)
		_, edges, err := verify.SADFAutomaton(stateScenario, transitions, ref.mats)
		if err != nil || !slices.Equal(edges, ref.edges) {
			t.Fatalf("%s: automaton differs from the reference enumeration (err %v)", m.Name, err)
		}
		if err := verify.RefSADFCheck(ctx, ref.cert, m.Graphs()); err != nil {
			t.Fatalf("%s: reference rejects its own certificate: %v", m.Name, err)
		}
		if err := d.cert.Check(ctx, m.Graphs()); err != nil {
			t.Fatalf("%s: certificate the reference accepts is rejected: %v", m.Name, err)
		}
		if res.Unbounded {
			unbounded++
			return
		}
		bounded++
		for k := 0; k < 3; k++ {
			tampered := *d.cert
			tampered.Potentials = slices.Clone(d.cert.Potentials)
			tampered.Potentials[rng.Intn(len(tampered.Potentials))] += int64(rng.Intn(5) - 2)
			got := tampered.Check(ctx, m.Graphs())
			want := verify.RefCheckPotentials(res.AutomatonNodes, ref.edges, tampered.Potentials, res.Period)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s: potential tamper: check = %v, reference potentials = %v", m.Name, got, want)
			}
			tampers++
			if got != nil {
				rejected++
			}
		}
	})
	t.Logf("%d models (%d bounded, %d unbounded); %d of %d potential tampers rejected by both",
		total, bounded, unbounded, rejected, tampers)
	if total < 2000 || unbounded < 200 || rejected == 0 || rejected == tampers {
		t.Errorf("differential set too weak: %d models, %d unbounded, %d of %d tampers rejected",
			total, unbounded, rejected, tampers)
	}
}

// tightSucc lists the automaton edges that are tight under the
// certificate's potentials, den·w + p(from) = p(to) + num: exactly the
// edges of critical cycles.
func tightSucc(nodes int, edges []verify.SADFEdge, c *verify.SADFCert) [][]int {
	succ := make([][]int, nodes)
	num, den := c.Period.Num(), c.Period.Den()
	for _, e := range edges {
		if den*e.W+c.Potentials[e.From] == c.Potentials[e.To]+num {
			succ[e.From] = append(succ[e.From], e.To)
		}
	}
	return succ
}

// onTightCycle reports whether node v lies on a cycle of tight edges.
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

// TestSADFCertTamperTable rejects, on the differential set: the period
// off by 1/den either way, a walk step along no FSM transition, the
// entry token swapped for one off every critical cycle, a schedule
// firing dropped and, on unbounded certificates, two dependent nodes of
// the order swapped.
func TestSADFCertTamperTable(t *testing.T) {
	ctx := context.Background()
	counts := map[string]int{}
	eachDiffCase(t, func(d *diffCase) {
		m, cert := d.m, d.cert
		reject := func(what string, c *verify.SADFCert) {
			t.Helper()
			if err := c.Check(ctx, m.Graphs()); !errors.Is(err, verify.ErrInvalid) {
				t.Fatalf("%s: %s accepted: %v", m.Name, what, err)
			}
			counts[what]++
		}
		dropped := *cert
		dropped.Schedules = slices.Clone(cert.Schedules)
		k := len(m.Name) % len(cert.Schedules)
		dropped.Schedules[k] = slices.Delete(slices.Clone(cert.Schedules[k]), 0, 1)
		reject("a schedule firing dropped", &dropped)

		n := m.Tokens()
		if cert.Unbounded {
			for _, e := range d.ref.edges {
				if e.From == e.To {
					continue
				}
				pos := make([]int, len(cert.Order))
				for i, v := range cert.Order {
					pos[v] = i
				}
				swapped := *cert
				swapped.Order = slices.Clone(cert.Order)
				swapped.Order[pos[e.From]], swapped.Order[pos[e.To]] = e.To, e.From
				reject("two dependent nodes of the order swapped", &swapped)
				break
			}
			return
		}
		num, den := cert.Period.Num(), cert.Period.Den()
		for _, delta := range []int64{-1, 1} {
			off := *cert
			off.Period = rat.MustNew(num+delta, den)
			reject("the period off by 1/den", &off)
		}
		succ := map[[2]int]bool{}
		for _, tr := range cert.Transitions {
			succ[tr] = true
		}
		last := cert.Walk[len(cert.Walk)-1]
		for r := range cert.StateNames {
			if !succ[[2]int{last, r}] {
				stray := *cert
				stray.Walk = append(slices.Clone(cert.Walk), r)
				reject("a walk step along no FSM transition", &stray)
				break
			}
		}
		tight := tightSucc(d.res.AutomatonNodes, d.ref.edges, cert)
		for j := 0; j < n; j++ {
			if !onTightCycle(tight, cert.Walk[0]*n+j) {
				swapped := *cert
				swapped.Entry = j
				reject("the entry token swapped for one off every critical cycle", &swapped)
				break
			}
		}
	})
	t.Logf("rejected tampers: %v", counts)
	for _, what := range []string{"a schedule firing dropped", "two dependent nodes of the order swapped",
		"the period off by 1/den", "a walk step along no FSM transition",
		"the entry token swapped for one off every critical cycle"} {
		if counts[what] < 20 {
			t.Errorf("only %d tampers of kind %q were applicable", counts[what], what)
		}
	}
}

// n2001Model runs the N = 2001 graph (N·Σq past 2^22) as the one
// scenario of a one-state model with a self-loop.
func n2001Model() *sadf.Model {
	return &sadf.Model{
		Name:        "n2001",
		Scenarios:   []sadf.Scenario{{Name: "s", Graph: testutil.N2001Graph()}},
		States:      []sadf.State{{Name: "q", Scenario: "s"}},
		Transitions: []sadf.Transition{{From: "q", To: "q"}},
		Initial:     "q",
	}
}

// TestSADFN2001ForgedMatrixRejected forges the scenario matrix of the
// N2001 one-state model: two entries of the critical token's row trade
// places, so every row maximum and the entry range — all the matrix
// binding the reference performs at this size — stay intact, and the
// period falls from 11 to 5. Witnesses built from the forgery pass the
// reference; the schedule-anchored check rejects them, and the genuine
// model is served verified with period 11.
func TestSADFN2001ForgedMatrixRejected(t *testing.T) {
	ctx := context.Background()
	m := n2001Model()
	g := m.Scenarios[0].Graph
	res, cert, err := sadf.Analyze(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Period.Equal(rat.FromInt(11)) {
		t.Fatalf("period = %v, want 11", res.Period)
	}
	if err := cert.Check(ctx, m.Graphs()); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	sym, err := core.SymbolicIteration(g)
	if err != nil {
		t.Fatal(err)
	}
	mc := &verify.MatrixCert{Matrix: sym.Matrix, Schedule: sym.Schedule}
	if mc.ExhaustiveFor(g) {
		t.Fatal("N·Σq is within the exhaustive replay cap; the model does not exercise the partial binding")
	}
	perm := verify.SADFTokenPerm(g)
	local := slices.Index(perm, cert.Entry)
	forged := sym.Matrix.Clone()
	var finite []int
	for j := 0; j < forged.Size(); j++ {
		if !forged.At(local, j).IsNegInf() {
			finite = append(finite, j)
		}
	}
	if len(finite) != 2 {
		t.Fatalf("critical row %d has %d finite entries, want 2", local, len(finite))
	}
	a, b := forged.At(local, finite[0]), forged.At(local, finite[1])
	forged.Set(local, finite[0], b)
	forged.Set(local, finite[1], a)

	stateScenario, transitions, initial := indices(m)
	nodes, sedges, err := verify.SADFAutomaton(stateScenario, transitions, []*maxplus.Matrix{forged.Permute(perm)})
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]mcm.Edge, len(sedges))
	for i, e := range sedges {
		edges[i] = mcm.Edge(e)
	}
	ratio, err := mcm.MaxCycleRatioEdges(context.Background(), nodes, edges)
	if err != nil || !ratio.HasCycle || !ratio.CycleRatio.Equal(rat.FromInt(5)) {
		t.Fatalf("forged period = %v (cycle %v, err %v), want 5", ratio.CycleRatio, ratio.HasCycle, err)
	}
	ref, err := verify.NewRefSADFCert(ctx, m.Graphs(), m.ScenarioNames(),
		[]*verify.MatrixCert{{Matrix: forged, Schedule: sym.Schedule}},
		m.StateNames(), stateScenario, transitions, initial, false, ratio.CycleRatio)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.RefSADFCheck(ctx, ref, m.Graphs()); err != nil {
		t.Fatalf("the reference rejects the forgery, so it proves nothing: %v", err)
	}
	forgery, err := verify.NewSADFCert(ctx, m.ScenarioNames(), [][]sdf.ActorID{sym.Schedule},
		m.StateNames(), stateScenario, transitions, initial, nodes, sedges, false, ratio.CycleRatio, ratio.Critical)
	if err != nil {
		t.Fatal(err)
	}
	if err := forgery.Check(ctx, m.Graphs()); !errors.Is(err, verify.ErrInvalid) {
		t.Fatalf("forged certificate for period 5 (true 11) accepted: %v", err)
	}

	srv := serve.New(serve.Options{DefaultTimeout: time.Minute})
	defer srv.Close()
	served, err := srv.AnalyzeSADF(ctx, &serve.SADFRequest{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if served.Period != "11" || !served.Verified {
		t.Fatalf("served period %q verified %v, want 11 verified", served.Period, served.Verified)
	}
}

var benchSADFErr error

// BenchmarkSADFCertCheck times one full SADFCert.Check on the
// 1,024-node sadf-cold-shaped model of internal/mcm's benchmark and on
// the N2001 one-state model.
func BenchmarkSADFCertCheck(b *testing.B) {
	for _, c := range []struct {
		name  string
		model *sadf.Model
	}{
		{"ring32-q32", ringFSMModel(rand.New(rand.NewSource(1)), 32, 32, 4)},
		{"n2001-one-state", n2001Model()},
	} {
		ctx := context.Background()
		_, cert, err := sadf.Analyze(ctx, c.model)
		if err != nil {
			b.Fatal(err)
		}
		graphs := c.model.Graphs()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSADFErr = cert.Check(ctx, graphs)
			}
			if benchSADFErr != nil {
				b.Fatal(benchSADFErr)
			}
		})
	}
}

// ringFSMModel is the sadf-cold-shaped model of internal/mcm's
// benchmark: scenarios over one ring of actors with a token per channel,
// and a random FSM with a cycle through every state, self-loops and
// extra transitions.
func ringFSMModel(rng *rand.Rand, ring, states, scenarios int) *sadf.Model {
	m := &sadf.Model{Name: fmt.Sprintf("ring%d-s%d-q%d", ring, scenarios, states)}
	for k := 0; k < scenarios; k++ {
		g := sdf.NewGraph(fmt.Sprintf("scn%d", k))
		for a := 0; a < ring; a++ {
			g.MustAddActor(fmt.Sprintf("A%d", a), 1+rng.Int63n(9))
		}
		for a := 0; a < ring; a++ {
			g.MustAddChannelByName(fmt.Sprintf("A%d", a), fmt.Sprintf("A%d", (a+1)%ring), 1, 1, 1)
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fmt.Sprintf("s%d", k), Graph: g})
	}
	seen := map[[2]int]bool{}
	for q := 0; q < states; q++ {
		m.States = append(m.States, sadf.State{Name: fmt.Sprintf("q%d", q), Scenario: fmt.Sprintf("s%d", q%scenarios)})
		targets := []int{(q + 1) % states}
		if rng.Intn(2) == 0 {
			targets = append(targets, q)
		}
		for e := rng.Intn(3); e > 0; e-- {
			targets = append(targets, rng.Intn(states))
		}
		for _, to := range targets {
			if !seen[[2]int{q, to}] {
				seen[[2]int{q, to}] = true
				m.Transitions = append(m.Transitions, sadf.Transition{From: fmt.Sprintf("q%d", q), To: fmt.Sprintf("q%d", to)})
			}
		}
	}
	m.Initial = "q0"
	return m
}
