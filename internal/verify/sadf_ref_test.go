package verify

import (
	"context"
	"fmt"

	"repro/internal/maxplus"
	"repro/internal/rat"
	"repro/internal/sdf"
)

// The SADF certificate as it stood before it became schedule-anchored:
// it carried one dense MatrixCert per scenario (exhaustively bound to
// its graph only while N·Σq ≤ 2^22), and its witnesses were checked
// against the automaton enumerated from those matrices, N² entries per
// FSM transition. It is kept, with newRefSADFCert and refSADFCheck, as
// the reference of the differential tests.

// refSADFAutomaton is the automaton enumeration of the reference: every
// transition scans the destination scenario's whole matrix.
func refSADFAutomaton(stateScenario []int, transitions [][2]int, mats []*maxplus.Matrix) (int, []SADFEdge, error) {
	if len(mats) == 0 {
		return 0, nil, fmt.Errorf("verify: sadf automaton needs at least one scenario matrix")
	}
	n := mats[0].Size()
	if n < 1 {
		return 0, nil, fmt.Errorf("verify: sadf automaton needs at least one shared token")
	}
	for k, m := range mats {
		if m == nil || m.Size() != n {
			return 0, nil, fmt.Errorf("verify: scenario matrix %d does not share dimension %d", k, n)
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
	var edges []SADFEdge
	for _, tr := range transitions {
		q1, q2 := tr[0], tr[1]
		if q1 < 0 || q1 >= states || q2 < 0 || q2 >= states {
			return 0, nil, fmt.Errorf("verify: transition %d->%d outside 0..%d", q1, q2, states-1)
		}
		m := mats[stateScenario[q2]]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if e := m.At(i, j); !e.IsNegInf() {
					edges = append(edges, SADFEdge{From: q1*n + j, To: q2*n + i, W: e.Int(), D: 1})
				}
			}
		}
	}
	return states * n, edges, nil
}

type refSADFCert struct {
	ScenarioNames []string
	Matrices      []*MatrixCert
	StateNames    []string
	StateScenario []int
	Transitions   [][2]int
	Initial       int
	Unbounded     bool
	Period        rat.Rat
	Potentials    []int64
	Cycle         []int
	Order         []int
}

func newRefSADFCert(ctx context.Context, scenarios []*sdf.Graph, scenarioNames []string, mcs []*MatrixCert,
	stateNames []string, stateScenario []int, transitions [][2]int, initial int,
	unbounded bool, period rat.Rat) (*refSADFCert, error) {
	cert := &refSADFCert{
		ScenarioNames: scenarioNames,
		Matrices:      mcs,
		StateNames:    stateNames,
		StateScenario: stateScenario,
		Transitions:   transitions,
		Initial:       initial,
		Unbounded:     unbounded,
		Period:        period,
	}
	nodes, edges, err := refSADFRef(scenarios, mcs, stateScenario, transitions)
	if err != nil {
		return nil, err
	}
	if unbounded {
		order, err := extractTopoOrder(nodes, edges)
		if err != nil {
			return nil, err
		}
		cert.Order = order
		return cert, nil
	}
	p, cycle, err := extractWitness(ctx, nodes, edges, period)
	if err != nil {
		return nil, err
	}
	cert.Potentials, cert.Cycle = p, cycle
	return cert, nil
}

func refSADFRef(scenarios []*sdf.Graph, mcs []*MatrixCert, stateScenario []int, transitions [][2]int) (int, []refEdge, error) {
	mats := make([]*maxplus.Matrix, len(mcs))
	for k, mc := range mcs {
		if mc == nil || mc.Matrix == nil {
			return 0, nil, invalidf("scenario %d carries no matrix certificate", k)
		}
		tokens := scenarios[k].TotalInitialTokens()
		if mc.Matrix.Size() != tokens {
			return 0, nil, invalidf("scenario %d matrix is %d×%d, the graph has %d tokens",
				k, mc.Matrix.Size(), mc.Matrix.Size(), tokens)
		}
		mats[k] = mc.Matrix.Permute(SADFTokenPerm(scenarios[k]))
	}
	nodes, sedges, err := refSADFAutomaton(stateScenario, transitions, mats)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	edges := make([]refEdge, len(sedges))
	for i, e := range sedges {
		edges[i] = refEdge{from: e.From, to: e.To, w: e.W, d: e.D}
	}
	return nodes, edges, nil
}

func refSADFCheck(ctx context.Context, c *refSADFCert, scenarios []*sdf.Graph) error {
	if err := c.checkStructure(scenarios); err != nil {
		return err
	}
	for k, mc := range c.Matrices {
		if err := mc.Check(ctx, scenarios[k]); err != nil {
			return invalidf("scenario %q matrix certificate: %v", c.ScenarioNames[k], err)
		}
	}
	nodes, edges, err := refSADFRef(scenarios, c.Matrices, c.StateScenario, c.Transitions)
	if err != nil {
		return err
	}
	if c.Unbounded {
		return checkTopoOrder(nodes, edges, c.Order)
	}
	if c.Period.Sign() < 0 {
		return invalidf("claimed period %v is negative", c.Period)
	}
	if err := checkPotentials(nodes, edges, c.Potentials, c.Period); err != nil {
		return err
	}
	if err := checkCycle(edges, c.Cycle, c.Period); err != nil {
		return err
	}
	return c.replayCriticalCycle(scenarios, edges)
}

func (c *refSADFCert) checkStructure(scenarios []*sdf.Graph) error {
	if len(scenarios) == 0 || len(scenarios) != len(c.ScenarioNames) || len(scenarios) != len(c.Matrices) {
		return invalidf("certificate covers %d scenarios, %d graphs given", len(c.ScenarioNames), len(scenarios))
	}
	states := len(c.StateNames)
	if states == 0 || len(c.StateScenario) != states {
		return invalidf("certificate labels %d of %d states", len(c.StateScenario), states)
	}
	for q, s := range c.StateScenario {
		if s < 0 || s >= len(scenarios) {
			return invalidf("state %q labels unknown scenario %d", c.StateNames[q], s)
		}
	}
	if c.Initial < 0 || c.Initial >= states {
		return invalidf("initial state %d outside 0..%d", c.Initial, states-1)
	}
	adj := make([][]int, states)
	for _, tr := range c.Transitions {
		if tr[0] < 0 || tr[0] >= states || tr[1] < 0 || tr[1] >= states {
			return invalidf("transition %d->%d outside 0..%d", tr[0], tr[1], states-1)
		}
		adj[tr[0]] = append(adj[tr[0]], tr[1])
	}
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
			return invalidf("state %q is unreachable from the initial state", c.StateNames[q])
		}
	}
	sig := SADFTokenSignature(scenarios[0])
	if sig == "" {
		return invalidf("scenarios carry no initial tokens")
	}
	for k := 1; k < len(scenarios); k++ {
		if SADFTokenSignature(scenarios[k]) != sig {
			return invalidf("scenario %q does not share the token signature of %q",
				c.ScenarioNames[k], c.ScenarioNames[0])
		}
	}
	return nil
}

func (c *refSADFCert) replayCriticalCycle(scenarios []*sdf.Graph, edges []refEdge) error {
	mats := make([]*maxplus.Matrix, len(c.Matrices))
	for k, mc := range c.Matrices {
		mats[k] = mc.Matrix.Permute(SADFTokenPerm(scenarios[k]))
	}
	n := mats[0].Size()
	first := edges[c.Cycle[0]]
	j0 := first.from % n
	x := maxplus.UnitVec(n, j0)
	sumW := int64(0)
	for _, idx := range c.Cycle {
		e := edges[idx]
		s := c.StateScenario[e.to/n]
		x = mats[s].Apply(x)
		var ok bool
		if sumW, ok = rat.AddChecked(sumW, e.w); !ok {
			return invalidf("critical-cycle replay weight overflows int64")
		}
	}
	got := x[j0]
	if got.IsNegInf() {
		return invalidf("critical-cycle replay loses the dependency on token %d", j0)
	}
	if got.Int() != sumW {
		return invalidf("critical-cycle replay reaches %d, the witness cycle weighs %d", got.Int(), sumW)
	}
	return nil
}

// Exports for the SADF differential tests of package verify_test, which
// build their models through internal/sadf and so cannot live here.
type RefSADFCert = refSADFCert

var (
	RefSADFAutomaton = refSADFAutomaton
	NewRefSADFCert   = newRefSADFCert
	RefSADFCheck     = refSADFCheck
)

// RefCheckPotentials runs the reference's potential check over an
// automaton edge list.
func RefCheckPotentials(nodes int, sedges []SADFEdge, p []int64, period rat.Rat) error {
	edges := make([]refEdge, len(sedges))
	for i, e := range sedges {
		edges[i] = refEdge{from: e.From, to: e.To, w: e.W, d: e.D}
	}
	return checkPotentials(nodes, edges, p, period)
}
