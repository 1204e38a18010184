package analysis

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/sdf"
)

// EngineAttempt records what happened to one engine of the resilient
// throughput ladder.
type EngineAttempt struct {
	// Method is the engine this attempt concerns.
	Method Method
	// Skipped is true when the engine was never run; Reason says why
	// (an earlier engine answered, the precheck size estimate exceeded
	// the budget, the context was already done, ...).
	Skipped bool
	// Reason explains a skip or summarises a failure.
	Reason string
	// Err is the structured error of a failed run: nil for the winner
	// and for engines skipped because an earlier one answered, the
	// gate's error for engines a HedgeOptions.Gate shed before they ran.
	Err error
	// Wall is how long the engine ran (zero for engines that never
	// started), measured on the observability clock when the context
	// carries a registry, the wall clock otherwise.
	Wall time.Duration
}

// attemptOutcome classifies an attempt for the engine-attempt counter.
func attemptOutcome(a EngineAttempt) string {
	switch {
	case a.Skipped && a.Err != nil:
		return "gated"
	case a.Skipped:
		return "skipped"
	case a.Err == nil:
		return "answered"
	case errors.Is(a.Err, guard.ErrCanceled):
		return "cancelled"
	default:
		return "failed"
	}
}

// countAttempts feeds every attempt into the registry (a no-op on nil).
func countAttempts(reg *obs.Registry, kind string, attempts []EngineAttempt) {
	for _, a := range attempts {
		outcome := attemptOutcome(a)
		reg.Counter(obs.MetricEngineAttempts, "engine", a.Method.String(), "outcome", outcome).Inc()
		if !a.Skipped {
			reg.Emit(kind+".attempt",
				"engine", a.Method.String(), "outcome", outcome, "wall", a.Wall.String())
		}
	}
}

// ResilientReport explains a resilient throughput analysis: one attempt
// per engine of the ladder, in the order they were considered, so
// callers can see which engine answered and why the others did not run.
type ResilientReport struct {
	// Attempts lists every engine of the ladder in consideration order.
	Attempts []EngineAttempt
	// Winner is the engine that produced the result; only meaningful
	// when Answered is true.
	Winner Method
	// Answered is true when some engine produced a throughput.
	Answered bool
}

// String renders the ladder for humans, one line per engine.
func (r *ResilientReport) String() string {
	var b strings.Builder
	for _, a := range r.Attempts {
		switch {
		case r.Answered && a.Method == r.Winner:
			fmt.Fprintf(&b, "%-11s answered\n", a.Method)
		case a.Skipped:
			fmt.Fprintf(&b, "%-11s skipped: %s\n", a.Method, a.Reason)
		default:
			fmt.Fprintf(&b, "%-11s failed: %s\n", a.Method, a.Reason)
		}
	}
	return b.String()
}

// ComputeThroughputResilient analyses g with the engine-degradation
// ladder of the resilience runtime: it tries the matrix engine first
// (symbolic max-plus, the paper's reduction and the cheapest engine on
// graphs with few initial tokens), falls back to state-space power
// iteration under the same budget, and only attempts the traditional
// HSDF conversion when the lint engine's static size estimate — the
// iteration length Σq against the budget's actor cap — says the
// conversion fits. Every engine runs behind panic isolation, so one
// broken engine degrades to the next instead of killing the analysis.
//
// The report is returned even on total failure, so callers can always
// explain which engines ran, failed or were skipped and why.
func ComputeThroughputResilient(ctx context.Context, g *sdf.Graph) (Throughput, *ResilientReport, error) {
	budget := guard.BudgetFrom(ctx)
	reg := obs.FromContext(ctx)
	rep := &ResilientReport{}
	defer func() { countAttempts(reg, "ladder", rep.Attempts) }()

	// Static size estimates via the lint engine: the iteration length
	// decides up front whether the traditional conversion is admissible
	// (IterationLength == 0 on a non-empty graph encodes Σq overflow).
	hsdfSkip := ""
	if elig, err := lint.Eligibility(g); err != nil {
		hsdfSkip = fmt.Sprintf("size estimate unavailable (%v)", err)
	} else if g.NumActors() > 0 && elig.IterationLength == 0 {
		hsdfSkip = "iteration length Σq overflows int64; the conversion cannot be materialised"
	} else if budget.MaxHSDFActors >= 0 && elig.IterationLength > budget.MaxHSDFActors {
		hsdfSkip = fmt.Sprintf("iteration length %d exceeds the HSDF actor budget %d",
			elig.IterationLength, budget.MaxHSDFActors)
	}

	var result Throughput
	var errs []error
	for _, m := range []Method{Matrix, StateSpace, HSDF} {
		if rep.Answered {
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Skipped: true,
				Reason: fmt.Sprintf("the %s engine already answered", rep.Winner),
			})
			continue
		}
		if err := ctx.Err(); err != nil {
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Skipped: true,
				Reason: fmt.Sprintf("context done before the engine could start (%v)", err),
			})
			continue
		}
		if m == HSDF && hsdfSkip != "" {
			rep.Attempts = append(rep.Attempts, EngineAttempt{Method: m, Skipped: true, Reason: hsdfSkip})
			continue
		}
		start := reg.Now()
		tp, err := ComputeThroughputCtx(ctx, g, m)
		wall := reg.Now().Sub(start)
		if err == nil {
			rep.Attempts = append(rep.Attempts, EngineAttempt{Method: m, Wall: wall})
			rep.Winner = m
			rep.Answered = true
			// Keep looping so the remaining rungs are recorded as skipped.
			result = tp
			continue
		}
		rep.Attempts = append(rep.Attempts, EngineAttempt{Method: m, Reason: err.Error(), Err: err, Wall: wall})
		errs = append(errs, fmt.Errorf("%v: %w", m, err))
	}
	if rep.Answered {
		return result, rep, nil
	}
	return Throughput{}, rep, fmt.Errorf("analysis: no engine produced a throughput: %w", errors.Join(errs...))
}
