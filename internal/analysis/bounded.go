package analysis

import (
	"context"
	"fmt"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// DefaultBoundedCeiling is the uniform guard budget of a bounded
// analysis when BoundedOptions names none: enough for the reduction
// fixpoint plus the matrix engine on any graph the admission layer
// would accept, small enough that a hostile graph fails in O(1).
const DefaultBoundedCeiling = 1 << 16

// Bound is a two-sided enclosure of the iteration period Λ of a graph:
// Lower ≤ Λ ≤ Upper in exact rational arithmetic.
//
// Upper is the certified side — the conservative answer of the
// paper's Theorem 1, lifted through the reduction chain and proved by
// the accompanying verify.ReductionCert. A client scheduling against
// Upper (equivalently, against the throughput floor 1/Upper) can never
// over-promise.
//
// Lower is advisory: a cheap witness floor from self-loop dependency
// chains (passes.Facts.PeriodFloor), zero when the graph has no
// delayed self-loop. It exists to tell clients how loose the bound is,
// not to schedule against.
type Bound struct {
	// Unbounded is true when no dependency cycle constrains the steady
	// state; Lower and Upper are then meaningless.
	Unbounded bool
	// Lower and Upper enclose Λ: Lower ≤ Λ ≤ Upper.
	Lower rat.Rat
	Upper rat.Rat
	// Exact is true when the reduction chain contained no abstraction
	// step, so Upper is Λ itself (and Lower is still just the floor).
	Exact bool
	// Repetition is the repetition vector of the original graph.
	Repetition []int64
}

// BoundedOptions configures ComputeThroughputBounded.
type BoundedOptions struct {
	// CostCeiling is the hard uniform guard budget (states, firings,
	// actors, tokens) for the whole computation — reduction fixpoint,
	// matrix engine, certificate construction. 0 means
	// DefaultBoundedCeiling; negative lifts the ceiling (tests only).
	CostCeiling int64
}

// ComputeThroughputBounded is the brownout engine: the cheapest
// analysis that still returns a certified answer. It runs only the
// reduction fixpoint — with the paper's abstraction rule (Defs 3–4)
// enabled, so a homogeneous cyclic graph collapses to one actor — plus
// the matrix engine on whatever the fixpoint left, all under a hard
// cost ceiling, and returns a Bound enclosing the true period together
// with a conservativeness certificate.
//
// The certificate is the full lift chain (verify.ReductionCert): each
// exact step is re-checked structurally and the abstraction step
// re-proves Theorem 1 via the AbstractionCert machinery, anchored in
// the inner matrix certificate of the reduced graph. It is checked
// here against g in exact arithmetic before being returned, and
// remains independently checkable by any client holding the original
// graph. Cert.Bound is true exactly when the chain crossed an
// abstraction step, i.e. when Upper is a Theorem 1 bound rather than
// the exact period.
func ComputeThroughputBounded(ctx context.Context, g *sdf.Graph, opts BoundedOptions) (Bound, *verify.ReductionCert, error) {
	var b Bound
	var cert *verify.ReductionCert
	err := guard.Protect("bounded", "bounded-throughput", func() error {
		var err error
		b, cert, err = computeThroughputBounded(ctx, g, opts)
		return err
	})
	if err != nil {
		return Bound{}, nil, err
	}
	return b, cert, nil
}

func computeThroughputBounded(ctx context.Context, g *sdf.Graph, opts BoundedOptions) (Bound, *verify.ReductionCert, error) {
	fail := func(err error) (Bound, *verify.ReductionCert, error) {
		return Bound{}, nil, fmt.Errorf("analysis: bounded: %w", err)
	}
	ceiling := opts.CostCeiling
	if ceiling == 0 {
		ceiling = DefaultBoundedCeiling
	}
	// The ceiling replaces whatever budget the context carried: bounded
	// mode exists to cap cost below the exact path's allowance, and the
	// guard budget is the one mechanism every loop already polls.
	bctx := guard.WithBudget(ctx, guard.Uniform(ceiling))

	reg := obs.FromContext(ctx)
	sp := reg.StartSpan("analysis.bounded-reduce")
	facts := passes.NewFacts(g)
	red, err := facts.Reduce(bctx, passes.Options{Rules: passes.AllRules()})
	sp.Finish()
	if err != nil {
		return fail(err)
	}
	if red.OriginalRepetition() == nil {
		return fail(fmt.Errorf("%w: graph is inconsistent", sdf.ErrInconsistent))
	}

	// The matrix engine only, on the reduced graph: it is the cheap
	// engine (symbolic iteration + eigenvalue), and after an abstraction step
	// the graph is a single self-looped actor it answers in microseconds.
	_, inner, err := ComputeThroughputCertified(bctx, red.Final, Matrix)
	if err != nil {
		return fail(err)
	}
	cert, err := red.LiftCert(inner)
	if err != nil {
		return fail(err)
	}
	// The conservativeness re-proof, in exact arithmetic against the
	// original graph — the certificate chain, not the engine, is what a
	// bounded answer asks the client to trust.
	if err := cert.Check(bctx, g); err != nil {
		return fail(err)
	}

	b := Bound{
		Unbounded:  cert.Unbounded,
		Exact:      !cert.Bound,
		Repetition: red.OriginalRepetition(),
	}
	if cert.Unbounded {
		return b, cert, nil
	}
	b.Upper = cert.Period
	if b.Exact {
		b.Lower = cert.Period
		return b, cert, nil
	}
	if floor, ok := facts.PeriodFloor(); ok {
		b.Lower = floor
	}
	if b.Lower.Cmp(b.Upper) > 0 {
		// Both sides are proved, so a crossing is a bug in one of them;
		// refuse loudly rather than hand out an empty interval.
		return fail(fmt.Errorf("%w: period floor %v exceeds certified ceiling %v",
			verify.ErrInvalid, b.Lower, b.Upper))
	}
	return b, cert, nil
}
