package passes

import (
	"context"
	"fmt"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/rat"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// Options configures a Reduce run.
type Options struct {
	// Rules is the ordered rule set; nil means DefaultRules (the exact
	// rules only).
	Rules []Rule
	// MaxSteps caps the number of applied rewrites; 0 derives a bound
	// from the graph size. The cap is a backstop — every rule strictly
	// shrinks the graph, so a well-formed run reaches the fixpoint long
	// before it.
	MaxSteps int
}

// Reduction is the result of driving a rule set to fixpoint on a graph:
// the reduced graph, the ordered rewrite chain, and the one lift of
// answers and certificates computed on the reduced graph back to the
// original.
type Reduction struct {
	// Original and Final are the endpoints of the chain.
	Original *sdf.Graph
	Final    *sdf.Graph
	// Steps are the applied rewrites in application order.
	Steps []*Application
	// Exact reports whether every step was exact; a false value means
	// lifted periods are Theorem 1 upper bounds.
	Exact bool

	scale     int64
	qOriginal []int64
	facts     *Facts
}

// Facts returns the fact table of the final (reduced) graph, so
// downstream consumers — admission cost, lint — reuse the driver's
// analyses instead of recomputing them. When no rule applied it is the
// table the fixpoint started from.
func (r *Reduction) Facts() *Facts { return r.facts }

// Scale is the product of the step scales: one iteration of the
// original graph contains Scale iterations of the reduced one.
func (r *Reduction) Scale() int64 { return r.scale }

// OriginalRepetition returns the repetition vector of the original
// graph, or nil when it is inconsistent. Lifted throughput answers pair
// with this vector, not the reduced graph's.
func (r *Reduction) OriginalRepetition() []int64 { return r.qOriginal }

// Trace renders the chain as one line per step, deterministic for a
// given graph and rule set.
func (r *Reduction) Trace() []string {
	out := make([]string, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = fmt.Sprintf("%s: %s (%d actors, %d channels -> %d actors, %d channels, scale %d)",
			s.Rule.Name, s.Note,
			s.Before.NumActors(), s.Before.NumChannels(),
			s.After.NumActors(), s.After.NumChannels(), s.Scale)
	}
	return out
}

// Lift maps an answer about the reduced graph back to the original:
// every rule relates iteration periods by its step scale, so the lifted
// period is the reduced one times the chain scale, which Reduce kept
// within int64. Unboundedness lifts unchanged (no rule adds or removes
// directed cycles), and Bound is set when the chain is not Exact — an
// abstraction step makes the period a Theorem 1 upper bound.
func (r *Reduction) Lift(v Value) (Value, error) {
	out := Value{Unbounded: v.Unbounded, Bound: !r.Exact}
	if v.Unbounded {
		return out, nil
	}
	p, err := v.Period.MulInt(r.scale)
	if err != nil {
		return Value{}, fmt.Errorf("passes: lifting period %v by chain scale %d: %w", v.Period, r.scale, err)
	}
	out.Period = p
	return out, nil
}

// LiftCert packages the chain and an inner throughput certificate of
// the reduced graph into a verify.ReductionCert for the original graph.
// The caller obtains inner from whichever certified engine analysed
// r.Final; the returned certificate is self-contained and checkable
// against r.Original.
func (r *Reduction) LiftCert(inner *verify.ThroughputCert) (*verify.ReductionCert, error) {
	if inner == nil {
		return nil, fmt.Errorf("passes: lift requires an inner throughput certificate")
	}
	if r.qOriginal == nil {
		return nil, fmt.Errorf("passes: cannot certify a reduction of an inconsistent graph")
	}
	v, err := r.Lift(Value{Period: inner.Period, Unbounded: inner.Unbounded})
	if err != nil {
		return nil, err
	}
	steps := make([]verify.LiftStep, len(r.Steps))
	for i, s := range r.Steps {
		steps[i] = s.LiftStep()
	}
	return &verify.ReductionCert{
		Steps:     steps,
		Inner:     inner,
		Bound:     v.Bound,
		Unbounded: v.Unbounded,
		Period:    v.Period,
		Q:         r.qOriginal,
	}, nil
}

// Reduce drives the rule set to fixpoint on g; it is
// NewFacts(g).Reduce(ctx, opts).
func Reduce(ctx context.Context, g *sdf.Graph, opts Options) (*Reduction, error) {
	return NewFacts(g).Reduce(ctx, opts)
}

// Reduce drives the rule set to fixpoint on the graph of f, starting
// from the facts f already holds — a caller that prechecked the graph
// passes its own table, and a fixpoint with no steps hands that table
// back as Reduction.Facts. Each round applies the first rule whose
// Reduce succeeds, rebinding the fact table with the facts the rule
// preserves, until no rule applies. Rule order is the slice order and
// rewrites are deterministic, so the same graph and rule set always
// produce the same chain.
//
// Inconsistent graphs reduce to themselves (no rule is period-sound
// without a repetition vector); the caller's precheck owns that
// diagnosis. The guard meter "reduce" charges one tick per attempted
// round, so budgets and deadlines bound the fixpoint like any engine.
func (f *Facts) Reduce(ctx context.Context, opts Options) (*Reduction, error) {
	g := f.Graph()
	rules := opts.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 2*(g.NumActors()+g.NumChannels()) + 8
	}
	reg := obs.FromContext(ctx)
	span := reg.StartSpan("passes.reduce")
	meter := guard.NewMeter(ctx, "reduce")
	meter.Phase("fixpoint")

	red := &Reduction{Original: g, Final: g, Exact: true, scale: 1, facts: f}
	if q, err := f.Repetition(); err == nil {
		red.qOriginal = q
	} else {
		span.Finish("outcome", "inconsistent")
		return red, nil
	}

	for len(red.Steps) < maxSteps {
		// A reduce round scans the whole current graph once per rule —
		// real work, so poll unconditionally: deadlines, cancellation and
		// injected checkpoint faults interrupt the fixpoint like any
		// engine phase.
		if err := meter.Canceled(); err != nil {
			span.Finish("outcome", "budget")
			return nil, err
		}
		work := int64(red.Final.NumActors()+red.Final.NumChannels()) + 1
		if err := meter.Tick(work * int64(len(rules))); err != nil {
			span.Finish("outcome", "budget")
			return nil, err
		}
		var app *Application
		var rule *Rule
		for i := range rules {
			a, err := rules[i].Reduce(red.facts)
			if err != nil {
				span.Finish("outcome", "error")
				return nil, fmt.Errorf("passes: rule %s: %w", rules[i].Name, err)
			}
			if a != nil {
				app, rule = a, &rules[i]
				break
			}
		}
		if app == nil {
			break
		}
		scale, ok := rat.MulChecked(red.scale, app.Scale)
		if !ok {
			// The accumulated iteration scale no longer fits an int64, so
			// answers could not be lifted; stop at the current graph.
			break
		}
		app.Rule = rule
		red.scale = scale
		red.Steps = append(red.Steps, app)
		red.Exact = red.Exact && rule.Exact
		red.Final = app.After
		red.facts = red.facts.Rebind(app.After, rule.Preserves)
		if app.QAfter != nil {
			red.facts.seedRepetition(app.QAfter)
		}
		reg.Counter(obs.MetricReduceSteps, "rule", rule.Name).Inc()
	}
	span.Finish(
		"outcome", "fixpoint",
		"steps", fmt.Sprint(len(red.Steps)),
	)
	return red, nil
}
