package mcm_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/maxplus"
	"repro/internal/mcm"
	"repro/internal/sadf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/verify"
)

// automatonEdges builds the max-plus automaton of an FSM-SADF model as
// sadf.Analyze hands it to MaxCycleRatioEdges.
func automatonEdges(tb testing.TB, m *sadf.Model) (int, []mcm.Edge) {
	tb.Helper()
	graphs := m.Graphs()
	mats := make([]*maxplus.Matrix, len(graphs))
	for k, g := range graphs {
		sym, err := core.SymbolicIterationCtx(context.Background(), g)
		if err != nil {
			tb.Fatal(err)
		}
		mats[k] = sym.Matrix.Permute(verify.SADFTokenPerm(g))
	}
	stateScenario := make([]int, len(m.States))
	for q, st := range m.States {
		stateScenario[q], _ = m.ScenarioIndex(st.Scenario)
	}
	transitions := make([][2]int, len(m.Transitions))
	for i, tr := range m.Transitions {
		from, _ := m.StateIndex(tr.From)
		to, _ := m.StateIndex(tr.To)
		transitions[i] = [2]int{from, to}
	}
	nodes, sedges, err := verify.SADFAutomaton(stateScenario, transitions, mats)
	if err != nil {
		tb.Fatal(err)
	}
	edges := make([]mcm.Edge, len(sedges))
	for i, e := range sedges {
		edges[i] = mcm.Edge{From: e.From, To: e.To, W: e.W, D: e.D}
	}
	return nodes, edges
}

// ringFSMModel is shaped like the served benchmark's sadf-cold models:
// scenarios over one ring of actors with a token per channel, differing
// in execution times, and a random FSM with a cycle through every state,
// self-loops and extra transitions. ring × states is the automaton's
// node count.
func ringFSMModel(tb testing.TB, rng *rand.Rand, ring, states, scenarios int) *sadf.Model {
	tb.Helper()
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
	if err := m.Validate(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkMaxCycleRatioEdges solves the automata of the two models on
// which Howard's iteration once hit its cap, and of one 1,024-node
// model shaped like the served sadf-cold traffic.
func BenchmarkMaxCycleRatioEdges(b *testing.B) {
	models := map[string]*sadf.Model{
		"ring32-q32": ringFSMModel(b, rand.New(rand.NewSource(1)), 32, 32, 4),
	}
	for _, name := range []string{"howard-cap-ring4-s3-q21", "howard-cap-ring5-s5-q28"} {
		text, err := os.ReadFile(filepath.Join("..", "sadf", "testdata", name+".txt"))
		if err != nil {
			b.Fatal(err)
		}
		if models[name], err = sdfio.ParseSADFText(string(text)); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"howard-cap-ring4-s3-q21", "howard-cap-ring5-s5-q28", "ring32-q32"} {
		nodes, edges := automatonEdges(b, models[name])
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := mcm.MaxCycleRatioEdges(nodes, edges)
				if err != nil || !res.HasCycle {
					b.Fatalf("%d nodes, %d edges: cycle %v, err %v", nodes, len(edges), res.HasCycle, err)
				}
			}
		})
	}
}
