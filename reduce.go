package sdfreduce

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/lint"
	"repro/internal/passes"
	"repro/internal/verify"
)

// Reduction pass manager (internal/passes): a composable rule system
// that shrinks a graph to a fixpoint before any engine runs. Rules only
// rewrite; every applied rewrite is recorded in the reduction chain,
// and answers computed on the reduced graph are lifted back to the
// original by the chain's iteration scale (Reduction.Lift), together
// with a checkable certificate chain (ReductionCert) that
// internal/verify validates step by step.
//
// The facade's throughput entry points (ComputeThroughput,
// ComputeThroughputCtx) run the exact default rules implicitly; the
// functions here expose the machinery for callers that want the reduced
// graph, the trace, or the lifted certificate themselves.
type (
	// Reduction is the result of driving a rule set to fixpoint: the
	// reduced graph, the rewrite chain, and the one lift back.
	Reduction = passes.Reduction
	// ReduceOptions selects the rule set and step bound of ReduceGraph.
	ReduceOptions = passes.Options
	// ReductionRule is one pluggable rewrite rule of the pass manager.
	ReductionRule = passes.Rule
	// ReductionValue is an analysis answer being lifted through a chain.
	ReductionValue = passes.Value
	// GraphFacts is the memoized static-analysis fact table shared by
	// the lint passes, the reduction rules and the admission estimator.
	GraphFacts = passes.Facts
	// ReductionCert certifies a throughput answer lifted through a
	// reduction chain back to the original graph.
	ReductionCert = verify.ReductionCert
	// ReductionStep is one checkable link of a ReductionCert chain.
	ReductionStep = verify.LiftStep
)

// KindReduction tags reduction-chain certificates.
const KindReduction = verify.KindReduction

// NewGraphFacts returns the fact table of g with nothing computed yet;
// facts materialise lazily and are memoized per graph.
func NewGraphFacts(g *Graph) *GraphFacts { return passes.NewFacts(g) }

// DefaultReductionRules returns the exact rules in their canonical
// order: redundant-channel pruning, rate normalisation, dead-actor
// elimination, chain fusion. Lifting through any chain of these
// reproduces the original graph's answer exactly.
func DefaultReductionRules() []ReductionRule { return passes.DefaultRules() }

// AllReductionRules returns the default rules plus the paper's §4
// abstraction, which is conservative rather than exact: lifted periods
// become Theorem-1 upper bounds.
func AllReductionRules() []ReductionRule { return passes.AllRules() }

// ReductionRulesByName resolves rule names ("prune-redundant",
// "rate-gcd", "dead-actor", "chain-fusion", "abstraction") against the
// registry, preserving the given order.
func ReductionRulesByName(names []string) ([]ReductionRule, error) {
	return passes.RulesByName(names)
}

// ReduceGraph drives the rule set to fixpoint on g after the lint
// prechecks, from the precheck's fact table. Rule application is
// deterministic: the same graph and rule set always produce the same
// chain.
func ReduceGraph(ctx context.Context, g *Graph, opts ReduceOptions) (*Reduction, error) {
	facts := passes.NewFacts(g)
	if err := lint.PrecheckWith(facts); err != nil {
		return nil, err
	}
	return facts.Reduce(ctx, opts)
}

// ComputeThroughputDirect analyses g with the chosen engine and no
// reduction pre-stage — the baseline the reduced pipeline is measured
// against.
func ComputeThroughputDirect(g *Graph, m Method) (Throughput, error) {
	return ComputeThroughputDirectCtx(context.Background(), g, m)
}

// ComputeThroughputDirectCtx is ComputeThroughputDirect under an
// explicit context and the budget it carries.
func ComputeThroughputDirectCtx(ctx context.Context, g *Graph, m Method) (Throughput, error) {
	if err := lint.Precheck(g); err != nil {
		return Throughput{}, err
	}
	return analysis.ComputeThroughputDirectCtx(ctx, g, m)
}

// CertifyReduction reduces g to fixpoint, analyses the reduced graph
// with the certified matrix engine, and returns the lifted answer with
// the full certificate chain, already checked against the original
// graph. With the default (exact) rules the answer equals the direct
// one; with a chain containing the abstraction rule the period is a
// conservative Theorem-1 upper bound and the certificate says so.
func CertifyReduction(ctx context.Context, g *Graph, opts ReduceOptions) (Throughput, *Reduction, *ReductionCert, error) {
	red, err := ReduceGraph(ctx, g, opts)
	if err != nil {
		return Throughput{}, nil, nil, err
	}
	_, inner, err := analysis.ComputeThroughputCertified(ctx, red.Final, analysis.Matrix)
	if err != nil {
		return Throughput{}, nil, nil, err
	}
	cert, err := red.LiftCert(inner)
	if err != nil {
		return Throughput{}, nil, nil, err
	}
	if err := cert.Check(ctx, g); err != nil {
		return Throughput{}, nil, nil, err
	}
	return Throughput{
		Unbounded:  cert.Unbounded,
		Period:     cert.Period,
		Repetition: red.OriginalRepetition(),
	}, red, cert, nil
}
