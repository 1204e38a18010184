package sadf

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/maxplus"
	"repro/internal/mcm"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// Result reports the worst-case throughput analysis of an FSM-SADF
// model.
type Result struct {
	// Period is the worst-case iteration period over all infinite
	// scenario sequences the FSM accepts: the maximum cycle mean of the
	// max-plus automaton. Meaningless when Unbounded.
	Period rat.Rat
	// Unbounded reports an acyclic automaton: no scenario sequence
	// constrains the steady state (e.g. an FSM without cycles).
	Unbounded bool
	// Tokens is the shared initial-token count of the scenarios.
	Tokens int
	// AutomatonNodes and AutomatonEdges size the max-plus automaton.
	AutomatonNodes, AutomatonEdges int
	// CriticalStates names the FSM states along one critical cycle, in
	// order (empty when Unbounded). Repeated visits appear repeatedly:
	// the slice is the witness scenario sequence of the worst case.
	CriticalStates []string
}

// Analyze computes the worst-case iteration period of the model and a
// certificate for it: per-scenario max-plus matrices and schedules via
// the symbolic iteration of Algorithm 1, the max-plus automaton over the
// FSM, its maximum cycle mean and a critical cycle via Howard's policy
// iteration, and a matrix-free verify.SADFCert whose witnesses are
// checked by replaying the scenario schedules.
func Analyze(ctx context.Context, m *Model) (*Result, *verify.SADFCert, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, err
	}
	graphs := m.Graphs()
	schedules := make([][]sdf.ActorID, len(graphs))
	mats := make([]*maxplus.Matrix, len(graphs))
	for k, g := range graphs {
		sym, err := core.SymbolicIterationCtx(ctx, g)
		if err != nil {
			return nil, nil, fmt.Errorf("sadf: scenario %q: %w", m.Scenarios[k].Name, err)
		}
		schedules[k] = sym.Schedule
		mats[k] = sym.Matrix.Permute(verify.SADFTokenPerm(g))
	}
	stateScenario, transitions, initial := m.indices()
	nodes, sedges, err := verify.SADFAutomaton(stateScenario, transitions, mats)
	if err != nil {
		return nil, nil, fmt.Errorf("sadf: %w", err)
	}
	edges := make([]mcm.Edge, len(sedges))
	for i, e := range sedges {
		edges[i] = mcm.Edge(e)
	}
	ratio, err := mcm.MaxCycleRatioEdges(ctx, nodes, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("sadf: automaton cycle ratio: %w", err)
	}
	res := &Result{
		Unbounded:      !ratio.HasCycle,
		Tokens:         m.Tokens(),
		AutomatonNodes: nodes,
		AutomatonEdges: len(edges),
	}
	if ratio.HasCycle {
		res.Period = ratio.CycleRatio
	}
	cert, err := verify.NewSADFCert(ctx, m.ScenarioNames(), schedules,
		m.StateNames(), stateScenario, transitions, initial, nodes, sedges, res.Unbounded, res.Period, ratio.Critical)
	if err != nil {
		return nil, nil, fmt.Errorf("sadf: certificate: %w", err)
	}
	n := m.Tokens()
	for _, node := range ratio.Critical {
		res.CriticalStates = append(res.CriticalStates, m.States[node/n].Name)
	}
	return res, cert, nil
}

// SelfLoopScenarios reports which scenarios label an FSM state with a
// self-loop: runs may repeat those scenarios forever, so any bound the
// scenario achieves on its own is achievable by the model. The serving
// layer's brownout bound uses this to anchor its lower bound.
func (m *Model) SelfLoopScenarios() map[string]bool {
	selfLoop := make(map[string]bool)
	for _, tr := range m.Transitions {
		if tr.From == tr.To {
			selfLoop[tr.From] = true
		}
	}
	looped := make(map[string]bool)
	for _, st := range m.States {
		if selfLoop[st.Name] {
			looped[st.Scenario] = true
		}
	}
	return looped
}
