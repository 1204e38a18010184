// Package sadf implements FSM-SADF: scenario-aware dataflow analysis in
// the style of Skelin & Geilen (arXiv 1404.0089). A model is a finite
// set of scenarios — each an SDF graph over a shared actor namespace
// whose initial tokens agree channel-for-channel — together with a
// finite-state machine whose states are labeled with scenarios. An
// execution picks an infinite run of the FSM and executes each visited
// state's scenario for one graph iteration, self-timed; the worst-case
// iteration period over all runs is the maximum cycle mean of the
// max-plus automaton built from the per-scenario (max,+) matrices.
//
// The matrices come from the paper's own symbolic-iteration machinery
// (internal/core), the cycle mean from Howard's policy iteration
// (internal/mcm), and every answer ships with a verify.SADFCert whose
// witnesses an independent checker replays in exact arithmetic.
package sadf

import (
	"fmt"
	"unicode/utf8"

	"repro/internal/sdf"
	"repro/internal/verify"
)

// Scenario is one operating mode: a named SDF graph.
type Scenario struct {
	Name  string
	Graph *sdf.Graph
}

// State is one FSM state, labeled with the scenario the system executes
// while in it.
type State struct {
	Name     string
	Scenario string
}

// Transition is one FSM edge between named states.
type Transition struct {
	From, To string
}

// Model is a complete FSM-SADF instance.
type Model struct {
	Name        string
	Scenarios   []Scenario
	States      []State
	Transitions []Transition
	Initial     string
}

// ScenarioIndex returns the index of the named scenario.
func (m *Model) ScenarioIndex(name string) (int, bool) {
	for i, s := range m.Scenarios {
		if s.Name == name {
			return i, true
		}
	}
	return 0, false
}

// StateIndex returns the index of the named state.
func (m *Model) StateIndex(name string) (int, bool) {
	for i, s := range m.States {
		if s.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Tokens returns the shared initial-token count of the scenarios. Valid
// models have the same count in every scenario.
func (m *Model) Tokens() int {
	if len(m.Scenarios) == 0 {
		return 0
	}
	return m.Scenarios[0].Graph.TotalInitialTokens()
}

// indices flattens the FSM to index form: per-state scenario indices,
// (from, to) transition pairs and the initial state. Valid only after
// Validate.
func (m *Model) indices() (stateScenario []int, transitions [][2]int, initial int) {
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

// Validate checks the model's structure: at least one scenario and one
// state, unique non-empty names that are valid UTF-8 (the JSON form
// could not carry any other bytes back unchanged), valid scenario
// graphs, resolvable cross-references, no duplicate transitions, an
// initial state from which every state is reachable, and a shared
// non-empty token signature across all scenarios (the max-plus matrices
// of the scenarios must act on one global token coordinate system).
func (m *Model) Validate() error {
	if err := m.validateUTF8(); err != nil {
		return err
	}
	if len(m.Scenarios) == 0 {
		return fmt.Errorf("sadf: model has no scenarios")
	}
	if len(m.States) == 0 {
		return fmt.Errorf("sadf: model has no FSM states")
	}
	seenScen := make(map[string]bool, len(m.Scenarios))
	for _, s := range m.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("sadf: scenario with empty name")
		}
		if seenScen[s.Name] {
			return fmt.Errorf("sadf: duplicate scenario %q", s.Name)
		}
		seenScen[s.Name] = true
		if s.Graph == nil {
			return fmt.Errorf("sadf: scenario %q has no graph", s.Name)
		}
		if err := s.Graph.Validate(); err != nil {
			return fmt.Errorf("sadf: scenario %q: %w", s.Name, err)
		}
	}
	seenState := make(map[string]bool, len(m.States))
	for _, st := range m.States {
		if st.Name == "" {
			return fmt.Errorf("sadf: state with empty name")
		}
		if seenState[st.Name] {
			return fmt.Errorf("sadf: duplicate state %q", st.Name)
		}
		seenState[st.Name] = true
		if !seenScen[st.Scenario] {
			return fmt.Errorf("sadf: state %q labels unknown scenario %q", st.Name, st.Scenario)
		}
	}
	seenTr := make(map[[2]string]bool, len(m.Transitions))
	for _, tr := range m.Transitions {
		if !seenState[tr.From] || !seenState[tr.To] {
			return fmt.Errorf("sadf: transition %s -> %s references an unknown state", tr.From, tr.To)
		}
		key := [2]string{tr.From, tr.To}
		if seenTr[key] {
			return fmt.Errorf("sadf: duplicate transition %s -> %s", tr.From, tr.To)
		}
		seenTr[key] = true
	}
	if m.Initial == "" {
		return fmt.Errorf("sadf: model has no initial state")
	}
	if !seenState[m.Initial] {
		return fmt.Errorf("sadf: initial state %q is unknown", m.Initial)
	}
	// Every state must be reachable from the initial state: then the
	// analyzer and the certificate checker enumerate the identical
	// automaton with no reachability pruning on either side.
	adj := make(map[string][]string, len(m.States))
	for _, tr := range m.Transitions {
		adj[tr.From] = append(adj[tr.From], tr.To)
	}
	reached := map[string]bool{m.Initial: true}
	stack := []string{m.Initial}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range adj[q] {
			if !reached[to] {
				reached[to] = true
				stack = append(stack, to)
			}
		}
	}
	for _, st := range m.States {
		if !reached[st.Name] {
			return fmt.Errorf("sadf: state %q is unreachable from initial state %q", st.Name, m.Initial)
		}
	}
	sig := verify.SADFTokenSignature(m.Scenarios[0].Graph)
	if sig == "" {
		return fmt.Errorf("sadf: scenario %q carries no initial tokens", m.Scenarios[0].Name)
	}
	for _, s := range m.Scenarios[1:] {
		if verify.SADFTokenSignature(s.Graph) != sig {
			return fmt.Errorf("sadf: scenario %q does not share the initial-token signature of %q (same src->dst channels with the same token counts required)",
				s.Name, m.Scenarios[0].Name)
		}
	}
	return nil
}

// validateUTF8 rejects a model, scenario, actor or state name that is
// not valid UTF-8. Transitions, state labels and the
// initial state name states and scenarios, so they resolve only to
// valid names.
func (m *Model) validateUTF8() error {
	invalid := func(what, name string) error {
		return fmt.Errorf("sadf: %s name %q is not valid UTF-8", what, name)
	}
	if !utf8.ValidString(m.Name) {
		return invalid("model", m.Name)
	}
	for _, s := range m.Scenarios {
		if !utf8.ValidString(s.Name) {
			return invalid("scenario", s.Name)
		}
		if s.Graph == nil {
			continue
		}
		for _, a := range s.Graph.Actors() {
			if !utf8.ValidString(a.Name) {
				return invalid("actor", a.Name)
			}
		}
	}
	for _, st := range m.States {
		if !utf8.ValidString(st.Name) {
			return invalid("state", st.Name)
		}
	}
	return nil
}

// Graphs returns the scenario graphs in scenario order.
func (m *Model) Graphs() []*sdf.Graph {
	out := make([]*sdf.Graph, len(m.Scenarios))
	for i, s := range m.Scenarios {
		out[i] = s.Graph
	}
	return out
}

// ScenarioNames returns the scenario names in scenario order.
func (m *Model) ScenarioNames() []string {
	out := make([]string, len(m.Scenarios))
	for i, s := range m.Scenarios {
		out[i] = s.Name
	}
	return out
}

// StateNames returns the state names in state order.
func (m *Model) StateNames() []string {
	out := make([]string, len(m.States))
	for i, s := range m.States {
		out[i] = s.Name
	}
	return out
}
