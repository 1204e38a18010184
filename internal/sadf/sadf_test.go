package sadf

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// twoScenarioModel is the running example of the docs: two actors in a
// ring with one token per channel, a "lo" scenario with cheap execution
// times and a "hi" scenario with expensive ones, and an FSM that allows
// staying in either scenario or switching.
func twoScenarioModel(t *testing.T) *Model {
	t.Helper()
	lo := sdf.NewGraph("lo")
	lo.MustAddActor("A", 1)
	lo.MustAddActor("B", 2)
	lo.MustAddChannelByName("A", "B", 1, 1, 1)
	lo.MustAddChannelByName("B", "A", 1, 1, 1)
	hi := sdf.NewGraph("hi")
	hi.MustAddActor("A", 5)
	hi.MustAddActor("B", 3)
	hi.MustAddChannelByName("A", "B", 1, 1, 1)
	hi.MustAddChannelByName("B", "A", 1, 1, 1)
	return &Model{
		Name:      "demo",
		Scenarios: []Scenario{{Name: "lo", Graph: lo}, {Name: "hi", Graph: hi}},
		States: []State{
			{Name: "slo", Scenario: "lo"},
			{Name: "shi", Scenario: "hi"},
		},
		Transitions: []Transition{
			{From: "slo", To: "slo"}, {From: "slo", To: "shi"},
			{From: "shi", To: "slo"}, {From: "shi", To: "shi"},
		},
		Initial: "slo",
	}
}

func TestAnalyzeTwoScenarios(t *testing.T) {
	m := twoScenarioModel(t)
	res, cert, err := Analyze(context.Background(), m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Unbounded {
		t.Fatalf("two-scenario ring reported unbounded")
	}
	// The hi scenario may repeat forever (self-loop on shi), so the
	// worst case is hi's own eigenvalue: the ring A(5),B(3) carries two
	// tokens, so its maximum cycle mean is (5+3)/2 = 4.
	want := rat.FromInt(4)
	if !res.Period.Equal(want) {
		t.Fatalf("worst-case period = %v, want %v", res.Period, want)
	}
	if cert == nil {
		t.Fatalf("Analyze returned no certificate")
	}
	if err := cert.Check(context.Background(), m.Graphs()); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	if len(res.CriticalStates) == 0 {
		t.Fatalf("no critical scenario sequence reported")
	}
}

func TestAnalyzeUnboundedFSM(t *testing.T) {
	m := twoScenarioModel(t)
	// Only slo -> shi remains: the FSM is acyclic, no infinite run
	// exists, nothing constrains the steady state.
	m.Transitions = []Transition{{From: "slo", To: "shi"}}
	res, cert, err := Analyze(context.Background(), m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !res.Unbounded {
		t.Fatalf("acyclic FSM not reported unbounded, period %v", res.Period)
	}
	if err := cert.Check(context.Background(), m.Graphs()); err != nil {
		t.Fatalf("unbounded certificate rejected: %v", err)
	}
}

func TestAnalyzeMultiRateScenario(t *testing.T) {
	// One scenario is multi-rate (A produces 2 per firing, B consumes
	// 1, so q = (1, 2)); the token signature still matches the HSDF
	// scenario, exercising the general symbolic-iteration path.
	multi := sdf.NewGraph("multi")
	multi.MustAddActor("A", 2)
	multi.MustAddActor("B", 1)
	multi.MustAddChannelByName("A", "B", 2, 1, 1)
	multi.MustAddChannelByName("B", "A", 1, 2, 1)
	hsdf := sdf.NewGraph("hsdf")
	hsdf.MustAddActor("A", 3)
	hsdf.MustAddActor("B", 4)
	hsdf.MustAddChannelByName("A", "B", 1, 1, 1)
	hsdf.MustAddChannelByName("B", "A", 1, 1, 1)
	m := &Model{
		Name:      "mixed",
		Scenarios: []Scenario{{Name: "m", Graph: multi}, {Name: "h", Graph: hsdf}},
		States: []State{
			{Name: "qm", Scenario: "m"},
			{Name: "qh", Scenario: "h"},
		},
		Transitions: []Transition{
			{From: "qm", To: "qh"}, {From: "qh", To: "qm"},
			{From: "qm", To: "qm"}, {From: "qh", To: "qh"},
		},
		Initial: "qm",
	}
	res, cert, err := Analyze(context.Background(), m)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Unbounded {
		t.Fatalf("mixed model reported unbounded")
	}
	if err := cert.Check(context.Background(), m.Graphs()); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	brute, has := bruteForcePeriod(t, m, 12)
	if !has {
		t.Fatalf("brute force found no cycle")
	}
	if !res.Period.Equal(brute) {
		t.Fatalf("automaton period %v, brute force %v", res.Period, brute)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"no scenarios", func(m *Model) { m.Scenarios = nil }},
		{"no states", func(m *Model) { m.States = nil }},
		{"duplicate scenario", func(m *Model) { m.Scenarios = append(m.Scenarios, m.Scenarios[0]) }},
		{"duplicate state", func(m *Model) { m.States = append(m.States, m.States[0]) }},
		{"unknown scenario ref", func(m *Model) { m.States[0].Scenario = "missing" }},
		{"unknown transition ref", func(m *Model) { m.Transitions[0].To = "missing" }},
		{"duplicate transition", func(m *Model) { m.Transitions = append(m.Transitions, m.Transitions[0]) }},
		{"unknown initial", func(m *Model) { m.Initial = "missing" }},
		{"empty initial", func(m *Model) { m.Initial = "" }},
		{"unreachable state", func(m *Model) {
			m.Transitions = []Transition{{From: "slo", To: "slo"}}
		}},
		{"scenario name not UTF-8", func(m *Model) {
			m.Scenarios[1].Name = "\xff"
			m.States[1].Scenario = "\xff"
		}},
		{"actor name not UTF-8", func(m *Model) {
			g := sdf.NewGraph("hi")
			g.MustAddActor("A\xfe", 1)
			g.MustAddActor("B", 1)
			g.MustAddChannelByName("A\xfe", "B", 1, 1, 1)
			g.MustAddChannelByName("B", "A\xfe", 1, 1, 1)
			m.Scenarios[1].Graph = g
		}},
		{"state name not UTF-8", func(m *Model) {
			m.States[0].Name = "s\xc3"
			m.Initial = "s\xc3"
			m.Transitions[0] = Transition{From: "s\xc3", To: "s\xc3"}
			m.Transitions[1].From = "s\xc3"
			m.Transitions[2].To = "s\xc3"
		}},
		{"token signature mismatch", func(m *Model) {
			g := sdf.NewGraph("odd")
			g.MustAddActor("A", 1)
			g.MustAddActor("B", 1)
			g.MustAddChannelByName("A", "B", 1, 1, 2)
			g.MustAddChannelByName("B", "A", 1, 1, 1)
			m.Scenarios[1].Graph = g
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := twoScenarioModel(t)
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatalf("Validate accepted a broken model")
			}
		})
	}
}

func TestCertTamperDetected(t *testing.T) {
	m := twoScenarioModel(t)
	ctx := context.Background()
	graphs := m.Graphs()
	tamper := []struct {
		name   string
		mutate func(c *verify.SADFCert)
	}{
		{"period", func(c *verify.SADFCert) { c.Period = rat.FromInt(7) }},
		{"schedule firing", func(c *verify.SADFCert) { c.Schedules[0] = c.Schedules[0][1:] }},
		{"walk", func(c *verify.SADFCert) { c.Walk = c.Walk[:len(c.Walk)-1] }},
		{"potentials", func(c *verify.SADFCert) { c.Potentials = c.Potentials[:len(c.Potentials)-1] }},
		{"unbounded flag", func(c *verify.SADFCert) { c.Unbounded = true }},
		{"scenario label", func(c *verify.SADFCert) { c.StateScenario[1] = 0 }},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			_, cert, err := Analyze(ctx, m)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			tc.mutate(cert)
			if err := cert.Check(ctx, graphs); err == nil {
				t.Fatalf("tampered certificate (%s) accepted", tc.name)
			}
		})
	}
}

// bruteForcePeriod enumerates every closed FSM walk of length ≤ k and
// computes the maximum over walks of the maximal diagonal entry of the
// max-plus product of the visited scenarios' matrices (in global token
// coordinates), divided by the walk length. Since every automaton cycle
// projects to a closed FSM walk and every finite diagonal entry of a
// product is an automaton cycle, this equals the automaton's maximum
// cycle mean whenever k is at least the automaton node count.
func bruteForcePeriod(t *testing.T, m *Model, k int) (rat.Rat, bool) {
	t.Helper()
	mats := make([]*maxplus.Matrix, len(m.Scenarios))
	for i, s := range m.Scenarios {
		sym, err := core.SymbolicIterationCtx(context.Background(), s.Graph)
		if err != nil {
			t.Fatalf("symbolic iteration of scenario %q: %v", s.Name, err)
		}
		mats[i] = sym.Matrix.Permute(verify.SADFTokenPerm(s.Graph))
	}
	stateScenario, transitions, _ := m.indices()
	succ := make([][]int, len(m.States))
	for _, tr := range transitions {
		succ[tr[0]] = append(succ[tr[0]], tr[1])
	}
	n := mats[0].Size()
	best := rat.Zero()
	has := false
	var walk func(start, at, depth int, prod *maxplus.Matrix)
	walk = func(start, at, depth int, prod *maxplus.Matrix) {
		if depth > 0 && at == start {
			for i := 0; i < n; i++ {
				if d := prod.At(i, i); !d.IsNegInf() {
					mean := rat.MustNew(d.Int(), int64(depth))
					if !has || mean.Cmp(best) > 0 {
						best = mean
						has = true
					}
				}
			}
		}
		if depth == k {
			return
		}
		for _, to := range succ[at] {
			walk(start, to, depth+1, mats[stateScenario[to]].Mul(prod))
		}
	}
	for q := range m.States {
		walk(q, q, 0, maxplus.Identity(n))
	}
	return best, has
}

// TestAutomatonMatchesBruteForce is the property test of the worst-case
// analysis: on small random FSM-SADF instances the automaton's maximum
// cycle mean must equal brute-force enumeration of all scenario
// sequences up to length k, in exact rational arithmetic.
func TestAutomatonMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valid := 0
	for trial := 0; trial < 60; trial++ {
		m := randomModel(rng)
		if err := m.Validate(); err != nil {
			continue
		}
		res, cert, err := Analyze(context.Background(), m)
		if err != nil {
			t.Fatalf("trial %d: Analyze rejected a valid model: %v", trial, err)
		}
		valid++
		// k must reach every simple automaton cycle: nodes = states·tokens.
		k := len(m.States) * m.Tokens()
		brute, has := bruteForcePeriod(t, m, k)
		if res.Unbounded != !has {
			t.Fatalf("trial %d: automaton unbounded=%v, brute force found cycle=%v\nmodel: %+v",
				trial, res.Unbounded, has, m)
		}
		if has && !res.Period.Equal(brute) {
			t.Fatalf("trial %d: automaton period %v != brute force %v\nmodel: %+v",
				trial, res.Period, brute, m)
		}
		if err := cert.Check(context.Background(), m.Graphs()); err != nil {
			t.Fatalf("trial %d: certificate rejected: %v", trial, err)
		}
	}
	if valid < 20 {
		t.Fatalf("only %d/60 random models were valid; generator too restrictive", valid)
	}
}

// randomModel builds a small random FSM-SADF instance: a fixed channel
// topology (so all scenarios share the token signature) with random
// token counts, random per-scenario execution times, and a random FSM.
func randomModel(rng *rand.Rand) *Model {
	actors := []string{"A", "B", "C"}[:2+rng.Intn(2)]
	type chanSpec struct {
		src, dst string
		init     int
	}
	// A ring through all actors keeps every scenario strongly
	// connected (symbolic iteration always succeeds); an optional
	// self-loop on the first actor varies the token dimension. Sizes
	// stay small enough that brute force over all FSM walks up to the
	// automaton node count stays cheap.
	var chans []chanSpec
	for i := range actors {
		chans = append(chans, chanSpec{src: actors[i], dst: actors[(i+1)%len(actors)], init: 1})
	}
	if len(actors) == 2 && rng.Intn(2) == 0 {
		chans = append(chans, chanSpec{src: actors[0], dst: actors[0], init: 1})
	}
	nScen := 1 + rng.Intn(2)
	m := &Model{Name: "rand"}
	for s := 0; s < nScen; s++ {
		name := string(rune('u' + s))
		g := sdf.NewGraph(name)
		for _, a := range actors {
			g.MustAddActor(a, int64(rng.Intn(6)))
		}
		for _, c := range chans {
			g.MustAddChannelByName(c.src, c.dst, 1, 1, c.init)
		}
		m.Scenarios = append(m.Scenarios, Scenario{Name: name, Graph: g})
	}
	// Cap automaton nodes (states·tokens) so the brute-force walk
	// enumeration in the property test stays at most ~3^6 walks.
	nStates := 1 + rng.Intn(3)
	if len(chans) > 2 {
		nStates = 1 + rng.Intn(2)
	}
	for q := 0; q < nStates; q++ {
		m.States = append(m.States, State{
			Name:     string(rune('p' + q)),
			Scenario: m.Scenarios[rng.Intn(nScen)].Name,
		})
	}
	for from := 0; from < nStates; from++ {
		for to := 0; to < nStates; to++ {
			if rng.Intn(3) == 0 {
				m.Transitions = append(m.Transitions, Transition{
					From: m.States[from].Name, To: m.States[to].Name,
				})
			}
		}
	}
	m.Initial = m.States[0].Name
	return m
}
