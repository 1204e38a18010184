package maxplus

import (
	"context"

	"repro/internal/guard"
	"repro/internal/mcm"
	"repro/internal/rat"
)

// Eigenvalue returns the max-plus eigenvalue of m: the maximum cycle mean
// of the precedence graph that has an edge j→i of weight m[i][j] for every
// finite entry. For an SDF iteration matrix, the eigenvalue is the
// asymptotic iteration period of self-timed execution, so throughput is
// its reciprocal.
//
// hasCycle is false when the precedence graph is acyclic; in that case
// there is no recurrent behaviour (the model's throughput is unbounded)
// and the returned value is meaningless.
func (m *Matrix) Eigenvalue() (lambda rat.Rat, hasCycle bool, err error) {
	return m.EigenvalueCtx(guard.WithBudget(context.Background(), guard.Unlimited()))
}

// EigenvalueCtx is Eigenvalue under the resilience runtime. The
// precedence graph, every edge carrying delay 1, goes to Howard's policy
// iteration in internal/mcm, the solver of the HSDF and SADF analyses.
// Before it runs, n·E states (n nodes, E finite entries: Karp's
// dynamic-programming bound) are charged against the budget carried by
// ctx and the context is polled once, so dense matrices respect budgets
// and a cancelled request stops here.
func (m *Matrix) EigenvalueCtx(ctx context.Context) (lambda rat.Rat, hasCycle bool, err error) {
	res, err := m.howard(ctx)
	return res.CycleRatio, res.HasCycle, err
}

// CriticalCycle returns the eigenvalue together with the critical cycle
// Howard's iteration ends on: node indices c_0 … c_{k−1} with every
// entry At(c_{i+1 mod k}, c_i) finite and the k entries summing to k·λ.
// When hasCycle is false the cycle is nil.
func (m *Matrix) CriticalCycle() (lambda rat.Rat, cycle []int, hasCycle bool, err error) {
	return m.CriticalCycleCtx(guard.WithBudget(context.Background(), guard.Unlimited()))
}

// CriticalCycleCtx is CriticalCycle under the budget of EigenvalueCtx.
func (m *Matrix) CriticalCycleCtx(ctx context.Context) (lambda rat.Rat, cycle []int, hasCycle bool, err error) {
	res, err := m.howard(ctx)
	return res.CycleRatio, res.Critical, res.HasCycle, err
}

// howard hands the precedence graph to mcm.MaxCycleRatioEdges, the one
// place the matrix becomes an edge list.
func (m *Matrix) howard(ctx context.Context) (mcm.EdgeResult, error) {
	meter := guard.NewMeter(ctx, "matrix")
	meter.Phase("eigenvalue")
	edges := make([]mcm.Edge, 0, m.FiniteCount())
	for i, row := range m.rows {
		for j, w := range row {
			if w != NegInf {
				edges = append(edges, mcm.Edge{From: j, To: i, W: int64(w), D: 1})
			}
		}
	}
	if err := meter.States(int64(m.n) * int64(len(edges))); err != nil {
		return mcm.EdgeResult{}, err
	}
	if err := meter.Canceled(); err != nil {
		return mcm.EdgeResult{}, err
	}
	return mcm.MaxCycleRatioEdges(ctx, m.n, edges)
}
