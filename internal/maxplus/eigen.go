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
		return rat.Rat{}, false, err
	}
	if err := meter.Canceled(); err != nil {
		return rat.Rat{}, false, err
	}
	res, err := mcm.MaxCycleRatioEdges(m.n, edges)
	if err != nil {
		return rat.Rat{}, false, err
	}
	return res.CycleRatio, res.HasCycle, nil
}
