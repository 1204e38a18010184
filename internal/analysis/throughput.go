// Package analysis provides throughput and latency analysis of timed SDF
// graphs through three independent engines that the test suite
// cross-validates against each other:
//
//  1. Matrix: symbolic max-plus iteration matrix + its eigenvalue, the
//     maximum cycle mean Howard's iteration in internal/mcm computes
//     (the machinery behind the paper's Algorithm 1),
//  2. StateSpace: explicit execution of the iteration recursion until a
//     recurrent state, the method of Ghamarian et al. (ACSD'06) that the
//     paper identifies as the most efficient known,
//  3. HSDF: traditional conversion followed by maximum-cycle-mean
//     analysis, the classical pipeline the paper's conversion replaces.
//
// All engines agree exactly on consistent, live graphs; they differ only
// in cost, which the benchmark suite measures. ComputeThroughputHedged is
// the one policy that picks among them: it runs the certified engines in
// order and returns the first answer that survives verification.
package analysis

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/maxplus"
	"repro/internal/mcm"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/transform"
)

// Method selects a throughput engine.
type Method int

const (
	// Matrix derives the iteration matrix symbolically and computes its
	// max-plus eigenvalue.
	Matrix Method = iota
	// StateSpace iterates the matrix on concrete time stamps until the
	// normalised state recurs.
	StateSpace
	// HSDF converts traditionally and runs Howard's maximum cycle mean.
	HSDF
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Matrix:
		return "matrix"
	case StateSpace:
		return "statespace"
	case HSDF:
		return "hsdf"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Throughput is the result of a throughput analysis of a timed SDF graph
// under self-timed execution.
type Throughput struct {
	// Unbounded is true when no dependency cycle constrains the steady
	// state; the remaining fields are then meaningless.
	Unbounded bool
	// Period is the asymptotic duration Λ of one graph iteration.
	Period rat.Rat
	// Repetition is the repetition vector; actor a fires Repetition[a]
	// times per Period.
	Repetition []int64
}

// ActorThroughput returns τ(a) = q(a)/Λ, the asymptotic number of firings
// of actor a per time unit.
func (t Throughput) ActorThroughput(a sdf.ActorID) (rat.Rat, error) {
	if t.Unbounded {
		return rat.Rat{}, errors.New("analysis: throughput is unbounded")
	}
	if t.Period.IsZero() {
		return rat.Rat{}, errors.New("analysis: zero period")
	}
	q := rat.FromInt(t.Repetition[a])
	return q.Div(t.Period)
}

// IterationThroughput returns 1/Λ, the number of complete iterations per
// time unit.
func (t Throughput) IterationThroughput() (rat.Rat, error) {
	if t.Unbounded {
		return rat.Rat{}, errors.New("analysis: throughput is unbounded")
	}
	return rat.One().Div(t.Period)
}

// ComputeThroughput analyses g with the chosen engine. The graph must be
// consistent and deadlock-free; a deadlock is reported as an error
// wrapping the underlying cause.
func ComputeThroughput(g *sdf.Graph, method Method) (Throughput, error) {
	return ComputeThroughputCtx(guard.WithBudget(context.Background(), guard.Unlimited()), g, method)
}

// ComputeThroughputCtx is ComputeThroughput under the resilience
// runtime: the engine honours the deadline/cancellation of ctx at
// checkpoints inside its hot loops, charges its work against the budget
// carried by ctx (guard.WithBudget; the default budget when absent) and
// runs behind panic isolation, so a broken or bombed engine yields a
// structured *guard.EngineError instead of hanging or crashing.
//
// Before the engine runs, the exact reduction rules of internal/passes
// shrink the graph to fixpoint and the engine analyses the reduced
// graph; the answer is lifted back through the chain, so the result is
// identical to a direct analysis (the rules are exact) at a fraction of
// the engine cost on reducible graphs. Use ComputeThroughputDirectCtx
// to bypass the reducer.
func ComputeThroughputCtx(ctx context.Context, g *sdf.Graph, method Method) (Throughput, error) {
	red, rerr := passes.Reduce(ctx, g, passes.Options{})
	if rerr != nil || len(red.Steps) == 0 {
		// No reduction applied (or the reducer itself hit the budget, in
		// which case the direct engine fails with the same structured
		// error): run the engine on the original graph, byte-identical to
		// the pre-reducer behaviour.
		return ComputeThroughputDirectCtx(ctx, g, method)
	}
	tp, err := ComputeThroughputDirectCtx(ctx, red.Final, method)
	if err != nil {
		return Throughput{}, err
	}
	v, err := red.Lift(passes.Value{Period: tp.Period, Unbounded: tp.Unbounded})
	if err != nil {
		return Throughput{}, fmt.Errorf("analysis: lift: %w", err)
	}
	return Throughput{Unbounded: v.Unbounded, Period: v.Period, Repetition: red.OriginalRepetition()}, nil
}

// ComputeThroughputDirectCtx runs the chosen engine on g as-is, with no
// reduction pre-stage. The benchmark suite uses it as the baseline the
// reduced pipeline is measured against, and the equivalence fuzzer as
// the oracle the lifted answers must match.
func ComputeThroughputDirectCtx(ctx context.Context, g *sdf.Graph, method Method) (Throughput, error) {
	var run engineRun
	err := guard.Protect(method.String(), "throughput", func() error {
		var err error
		if run, err = runEngine(ctx, g, method); err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		return nil
	})
	if err != nil {
		return Throughput{}, err
	}
	return run.tp, nil
}

// engineRun is one engine's answer together with what its certificate
// is built from: the symbolic iteration of the matrix engines, or the
// traditionally converted graph of the HSDF engine.
type engineRun struct {
	tp   Throughput
	sym  *core.SymbolicResult
	hsdf *sdf.Graph
}

// runEngine is the one front end of the three engines. Each pipeline
// stage lands in its own latency series when the context carries a
// registry; with none each span is a nil check.
func runEngine(ctx context.Context, g *sdf.Graph, method Method) (engineRun, error) {
	reg := obs.FromContext(ctx)
	eng := method.String()
	q, err := g.RepetitionVector()
	if err != nil {
		return engineRun{}, err
	}
	run := engineRun{tp: Throughput{Repetition: q}}
	hasCycle := false
	switch method {
	case Matrix, StateSpace:
		sp := reg.StartSpan("analysis.symbolic", "engine", eng)
		run.sym, err = core.SymbolicIterationCtx(ctx, g)
		sp.Finish()
		if err != nil {
			return engineRun{}, err
		}
		if method == Matrix {
			sp = reg.StartSpan("analysis.eigenvalue", "engine", eng)
			run.tp.Period, hasCycle, err = run.sym.Matrix.EigenvalueCtx(ctx)
		} else {
			const maxIter = 1 << 22
			sp = reg.StartSpan("analysis.power-iteration", "engine", eng)
			var res maxplus.PowerResult
			res, hasCycle, err = run.sym.Matrix.PowerIterationCtx(ctx, maxIter)
			run.tp.Period = res.CycleMean
		}
		sp.Finish()

	case HSDF:
		sp := reg.StartSpan("analysis.conversion", "engine", eng)
		run.hsdf, _, err = transform.TraditionalCtx(ctx, g)
		sp.Finish()
		if err != nil {
			return engineRun{}, err
		}
		if testTamperHSDF != nil {
			run.hsdf = testTamperHSDF(run.hsdf)
		}
		sp = reg.StartSpan("analysis.mcm", "engine", eng)
		var res mcm.Result
		res, err = mcm.MaxCycleRatio(run.hsdf)
		sp.Finish()
		run.tp.Period, hasCycle = res.CycleMean, res.HasCycle

	default:
		return engineRun{}, fmt.Errorf("unknown method %v", method)
	}
	if err != nil {
		return engineRun{}, err
	}
	run.tp.Unbounded = !hasCycle
	return run, nil
}
