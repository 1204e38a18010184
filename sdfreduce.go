// Package sdfreduce is a Go implementation of the reduction techniques for
// synchronous dataflow (SDF) graphs of M. Geilen, "Reduction Techniques
// for Synchronous Dataflow Graphs", DAC 2009, together with the complete
// SDF analysis stack they rest on.
//
// The package provides:
//
//   - the timed SDF graph model (actors, rate-annotated FIFO channels,
//     initial tokens), consistency checking and repetition vectors;
//   - throughput and latency analysis through three cross-validated
//     engines (max-plus iteration matrix, state-space exploration, and
//     traditional HSDF conversion + maximum cycle mean);
//   - the paper's abstraction method: merging groups of equal-rate actors
//     into single abstract actors with a provably conservative throughput
//     bound (Theorem 1), including a mechanical checker for the §5 proof
//     obligations and automatic abstraction inference;
//   - the paper's novel SDF→HSDF conversion: symbolic max-plus execution
//     of one iteration followed by the Figure-4 construction, producing a
//     graph of at most N(N+2) actors for N initial tokens, versus the
//     iteration length (potentially exponential) of the classical
//     conversion, which is also provided as the baseline;
//   - a discrete-event self-timed simulator, graph generators for the
//     paper's figures, the reconstructed Table-1 benchmark suite, and
//     text/XML/JSON/DOT serialisation.
//
// The root package is a facade: it re-exports the stable API of the
// internal packages so that applications need a single import.
package sdfreduce

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/buffersizing"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/lint"
	"repro/internal/mapping"
	"repro/internal/mcm"
	"repro/internal/rat"
	"repro/internal/schedule"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/sim"
	"repro/internal/transform"
)

// Graph model.
type (
	// Graph is a timed SDF graph (Definitions 1–2 of the paper).
	Graph = sdf.Graph
	// ActorID identifies an actor within a Graph.
	ActorID = sdf.ActorID
	// ChannelID identifies a channel within a Graph.
	ChannelID = sdf.ChannelID
	// Actor is a named actor with an execution time.
	Actor = sdf.Actor
	// Channel is a dependency edge with rates and initial tokens.
	Channel = sdf.Channel
	// Rat is an exact rational number (throughput values, cycle means).
	Rat = rat.Rat
)

// NewGraph returns an empty timed SDF graph with the given name.
func NewGraph(name string) *Graph { return sdf.NewGraph(name) }

// Analysis.
type (
	// Throughput is the result of a throughput analysis.
	Throughput = analysis.Throughput
	// Method selects a throughput engine.
	Method = analysis.Method
	// LatencyReport summarises iteration latency.
	LatencyReport = analysis.LatencyReport
)

// Throughput engines.
const (
	// MethodMatrix uses the symbolic max-plus matrix and its eigenvalue.
	MethodMatrix = analysis.Matrix
	// MethodStateSpace explores the execution state space.
	MethodStateSpace = analysis.StateSpace
	// MethodHSDF converts traditionally and computes the MCM.
	MethodHSDF = analysis.HSDF
)

// Resilience runtime (internal/guard): every analysis entry point of
// the facade runs under a work budget and, through the Ctx variants,
// honours context deadlines and cancellation at checkpoints inside the
// engines' hot loops. Panics inside an engine surface as structured
// *EngineError values instead of crashing the process.
type (
	// Budget caps the work one analysis may perform (states explored,
	// firings executed, HSDF actors materialised, initial tokens
	// accepted). The zero value means "defaults"; negative dimensions
	// are unlimited.
	Budget = guard.Budget
	// EngineError is the structured failure of one engine: it names the
	// engine and phase and carries the work counters at the stop.
	EngineError = guard.EngineError
	// EngineAttempt is one engine's attempt in a HedgeReport.
	EngineAttempt = analysis.EngineAttempt
)

// Error taxonomy of the resilience runtime; test with errors.Is.
var (
	// ErrBudgetExceeded marks work refused or aborted because a budget
	// dimension was exhausted.
	ErrBudgetExceeded = guard.ErrBudgetExceeded
	// ErrCanceled marks work aborted by context cancellation or
	// deadline; the context cause is wrapped alongside it.
	ErrCanceled = guard.ErrCanceled
	// ErrEngineFailed marks an engine that panicked or failed
	// internally.
	ErrEngineFailed = guard.ErrEngineFailed
)

// DefaultBudget returns the budget applied when a context carries none.
func DefaultBudget() Budget { return guard.Default() }

// UnlimitedBudget returns a budget with every work cap lifted
// (deadlines still apply).
func UnlimitedBudget() Budget { return guard.Unlimited() }

// UniformBudget returns a budget with every work dimension set to n
// (n <= 0 means unlimited) — the shape sdftool's -budget flag uses.
func UniformBudget(n int64) Budget { return guard.Uniform(n) }

// WithBudget returns a context carrying b; the Ctx analysis variants
// read their budget from the context they are given.
func WithBudget(ctx context.Context, b Budget) context.Context { return guard.WithBudget(ctx, b) }

// ComputeThroughput analyses the self-timed throughput of g. Structurally
// unsound graphs (inconsistent rates, token-insufficient cycles) fail
// fast with the lint prechecks' diagnostics. The default work budget
// applies: explosive graphs are refused with ErrBudgetExceeded instead
// of hanging the process.
func ComputeThroughput(g *Graph, m Method) (Throughput, error) {
	return ComputeThroughputCtx(context.Background(), g, m)
}

// ComputeThroughputCtx is ComputeThroughput under an explicit context:
// the engine honours ctx's deadline/cancellation at checkpoints inside
// its hot loops and charges its work against the budget carried by ctx
// (WithBudget; DefaultBudget when absent).
func ComputeThroughputCtx(ctx context.Context, g *Graph, m Method) (Throughput, error) {
	if err := lint.Precheck(g); err != nil {
		return Throughput{}, err
	}
	return analysis.ComputeThroughputCtx(ctx, g, m)
}

// ComputeLatency derives a latency report of one iteration of g, after
// the lint prechecks.
func ComputeLatency(g *Graph) (*LatencyReport, error) {
	return ComputeLatencyCtx(context.Background(), g)
}

// ComputeLatencyCtx is ComputeLatency under an explicit context and the
// budget it carries.
func ComputeLatencyCtx(ctx context.Context, g *Graph) (*LatencyReport, error) {
	if err := lint.Precheck(g); err != nil {
		return nil, err
	}
	return analysis.ComputeLatencyCtx(ctx, g)
}

// Model-level static analysis (diagnostics over graphs).
type (
	// LintReport is the result of linting one graph.
	LintReport = lint.Report
	// Diagnostic is one finding of one lint pass.
	Diagnostic = lint.Diagnostic
	// LintOptions selects which lint passes run.
	LintOptions = lint.Options
	// EligibilityReport surveys the §4–5 abstraction opportunities of a
	// graph: its maximal equal-repetition actor groups and the size of the
	// novel conversion against the iteration length.
	EligibilityReport = lint.EligibilityReport
	// LintSeverity classifies a diagnostic.
	LintSeverity = lint.Severity
)

// Diagnostic severities.
const (
	// LintInfo reports a property of the graph without judging it.
	LintInfo = lint.Info
	// LintWarning flags a likely modelling mistake or a scalability risk.
	LintWarning = lint.Warning
	// LintError marks a violated precondition of the analyses.
	LintError = lint.Error
)

// PrecheckError is the error returned when the cheap lint passes find
// Error-level diagnostics; it carries the full report and unwraps to
// the sentinel causes (ErrInconsistent, ErrDeadlockCycle).
type PrecheckError = lint.PrecheckError

// ErrDeadlockCycle is wrapped by precheck errors caused by a
// token-insufficient cycle; test with errors.Is.
var ErrDeadlockCycle = lint.ErrDeadlockCycle

// ErrInconsistent is wrapped by errors reported for graphs whose balance
// equations admit only the trivial solution; test with errors.Is.
var ErrInconsistent = sdf.ErrInconsistent

// Lint runs the model-level diagnostic passes over g.
func Lint(g *Graph, opts LintOptions) (*LintReport, error) { return lint.Analyze(g, opts) }

// Precheck runs only the cheap lint passes and returns an error carrying
// the report when any precondition of the analyses is violated. The
// analysis and conversion entry points of this package call it
// implicitly.
func Precheck(g *Graph) error { return lint.Precheck(g) }

// AbstractionEligibility reports the maximal equal-repetition actor
// groups of g together with the iteration length and the N(N+2) bound of
// the novel conversion.
func AbstractionEligibility(g *Graph) (*EligibilityReport, error) { return lint.Eligibility(g) }

// Bottleneck names the critical cycle of a graph in terms of its tokens
// and channels.
type Bottleneck = analysis.Bottleneck

// FindBottleneck locates the channels whose initial tokens lie on the
// critical cycle — where extra pipelining tokens or faster actors
// actually buy throughput.
func FindBottleneck(g *Graph) (*Bottleneck, error) { return analysis.FindBottleneck(g) }

// MakespanAfter returns the completion time of the k-th iteration from a
// cold start, computed in O(log k) max-plus matrix products.
func MakespanAfter(g *Graph, k int) (int64, bool, error) { return analysis.MakespanAfter(g, k) }

// MaxCycleMean computes the maximum cycle mean of a homogeneous graph —
// the iteration period of self-timed execution.
func MaxCycleMean(g *Graph) (mcm.Result, error) { return mcm.MaxCycleRatio(g) }

// RepetitionVector solves the balance equations of g.
func RepetitionVector(g *Graph) ([]int64, error) { return g.RepetitionVector() }

// IsLive reports whether g admits a complete iteration without deadlock.
func IsLive(g *Graph) bool { return schedule.IsLive(g) }

// SequentialSchedule returns a single-iteration sequential schedule.
func SequentialSchedule(g *Graph) ([]ActorID, error) { return schedule.Sequential(g) }

// Reductions: the paper's contributions.
type (
	// Abstraction is the paper's (α, I) pair (Definition 3).
	Abstraction = core.Abstraction
	// AbstractionResult relates an abstract graph to its original.
	AbstractionResult = core.AbstractionResult
	// SymbolicResult is the max-plus iteration matrix of a graph.
	SymbolicResult = core.SymbolicResult
	// ConvertStats sizes a novel-conversion result.
	ConvertStats = core.ConvertStats
	// TraditionalStats sizes a traditional-conversion result.
	TraditionalStats = transform.TraditionalStats
)

// Abstract applies an abstraction per Definition 4, pruning redundant
// channels; the result's throughput divided by N conservatively bounds
// the original's (Theorem 1).
func Abstract(g *Graph, ab *Abstraction) (*Graph, *AbstractionResult, error) {
	return core.Abstract(g, ab)
}

// InferAbstraction derives an abstraction from the numeric-suffix naming
// convention of regular graphs (A1…An ↦ A).
func InferAbstraction(g *Graph) (*Abstraction, error) { return core.InferByName(g) }

// InferAbstractionByLevels derives index assignments for a given grouping
// from the zero-delay precedence structure.
func InferAbstractionByLevels(g *Graph, grouping map[string]string) (*Abstraction, error) {
	return core.InferByLevels(g, grouping)
}

// Unfold computes the N-fold unfolding of a homogeneous graph
// (Definition 5).
func Unfold(g *Graph, n int) (*Graph, error) { return core.Unfold(g, n) }

// VerifyAbstractionConservative mechanically discharges the §5 proof
// obligations for a homogeneous graph and an abstraction.
func VerifyAbstractionConservative(g *Graph, ab *Abstraction) error {
	return core.VerifyAbstractionConservative(g, ab)
}

// AbstractionThroughputBound converts an abstract graph's iteration
// period into the Theorem-1 bound 1/(N·Λ′) on the original throughput.
func AbstractionThroughputBound(abstractPeriod Rat, n int) (Rat, error) {
	return core.ThroughputBound(abstractPeriod, n)
}

// SymbolicIteration executes one iteration of g symbolically (Algorithm
// 1, lines 1–11) and returns the max-plus iteration matrix.
func SymbolicIteration(g *Graph) (*SymbolicResult, error) { return core.SymbolicIteration(g) }

// ConvertSymbolic converts g to HSDF with the paper's novel algorithm,
// after the lint prechecks.
func ConvertSymbolic(g *Graph) (*Graph, *SymbolicResult, ConvertStats, error) {
	if err := lint.Precheck(g); err != nil {
		return nil, nil, ConvertStats{}, err
	}
	return core.ConvertSymbolic(g)
}

// ConvertSymbolicCtx is ConvertSymbolic under an explicit context: the
// symbolic iteration inside the conversion honours ctx's deadline and
// the budget it carries.
func ConvertSymbolicCtx(ctx context.Context, g *Graph) (*Graph, *SymbolicResult, ConvertStats, error) {
	if err := lint.Precheck(g); err != nil {
		return nil, nil, ConvertStats{}, err
	}
	var (
		h     *Graph
		r     *SymbolicResult
		stats ConvertStats
	)
	err := guard.Protect("symbolic", "convert", func() error {
		var err error
		h, r, stats, err = core.ConvertSymbolicCtx(ctx, g)
		return err
	})
	if err != nil {
		return nil, nil, ConvertStats{}, err
	}
	return h, r, stats, nil
}

// BuildOptions configures BuildHSDF (mux/demux elision, observers).
type BuildOptions = core.BuildOptions

// Observer names a symbolic time stamp to expose as a zero-time
// collector actor in a constructed HSDF graph — the §6 device for
// tracking a dedicated output actor's completion.
type Observer = core.Observer

// DefaultBuildOptions returns the paper's Figure-4 construction settings.
func DefaultBuildOptions() BuildOptions { return core.DefaultBuildOptions() }

// BuildHSDF constructs the Figure-4 HSDF graph from a symbolic iteration
// result with explicit options.
func BuildHSDF(name string, r *SymbolicResult, opts BuildOptions) (*Graph, ConvertStats, error) {
	return core.BuildHSDF(name, r, opts)
}

// ConvertTraditional converts g to HSDF with the classical algorithm: one
// actor per firing of an iteration. The lint prechecks run first, and
// the default work budget applies: a graph whose iteration length
// exceeds the actor budget is refused with ErrBudgetExceeded up front
// instead of exhausting the machine.
func ConvertTraditional(g *Graph) (*Graph, TraditionalStats, error) {
	return ConvertTraditionalCtx(context.Background(), g)
}

// ConvertTraditionalCtx is ConvertTraditional under an explicit context:
// the conversion honours ctx's deadline/cancellation at checkpoints and
// charges the budget carried by ctx (WithBudget; DefaultBudget when
// absent) — the Σq actor estimate is checked before anything is
// allocated.
func ConvertTraditionalCtx(ctx context.Context, g *Graph) (*Graph, TraditionalStats, error) {
	if err := lint.Precheck(g); err != nil {
		return nil, TraditionalStats{}, err
	}
	var (
		h     *Graph
		stats TraditionalStats
	)
	err := guard.Protect("traditional", "convert", func() error {
		var err error
		h, stats, err = transform.TraditionalCtx(ctx, g)
		return err
	})
	if err != nil {
		return nil, TraditionalStats{}, err
	}
	return h, stats, nil
}

// PruneRedundantChannels drops dominated parallel channels (§4.2).
func PruneRedundantChannels(g *Graph) (*Graph, int) { return core.PruneRedundantChannels(g) }

// Retime applies a Leiserson–Saxe retiming lag to a homogeneous graph:
// channel (u, v) gets Initial + lag[v] − lag[u] tokens. The maximum cycle
// mean is invariant; latency and per-channel register pressure change.
func Retime(g *Graph, lag []int) (*Graph, error) { return transform.Retime(g, lag) }

// CanonicalRetiming retimes a strongly connected homogeneous graph into
// its canonical token placement relative to an anchor actor.
func CanonicalRetiming(g *Graph, anchor ActorID) (*Graph, []int, error) {
	return transform.CanonicalRetiming(g, anchor)
}

// WithBufferCapacities models bounded channel capacities through reverse
// credit channels.
func WithBufferCapacities(g *Graph, capacities map[ChannelID]int) (*Graph, error) {
	return transform.WithBufferCapacities(g, capacities)
}

// Multiprocessor mapping.

// Binding assigns actors to processors with a static order per processor.
type Binding = mapping.Binding

// GreedyBind builds a load-balancing binding onto the given number of
// processors.
func GreedyBind(g *Graph, processors int) (*Binding, error) {
	return mapping.GreedyBind(g, processors)
}

// UtilisationBound returns the processor-load lower bound on the
// iteration period of any binding.
func UtilisationBound(g *Graph, processors int) (Rat, error) {
	return mapping.UtilisationBound(g, processors)
}

// Buffer sizing.
type (
	// BufferPoint is one explored capacity configuration.
	BufferPoint = buffersizing.Point
	// BufferResult is the outcome of a buffer-size exploration.
	BufferResult = buffersizing.Result
	// BufferOptions configures ExploreBuffers.
	BufferOptions = buffersizing.Options
)

// ExploreBuffers walks the throughput/buffer trade-off of g, returning
// the Pareto staircase of (total capacity, iteration period) points.
func ExploreBuffers(g *Graph, opts BufferOptions) (*BufferResult, error) {
	return ExploreBuffersCtx(context.Background(), g, opts)
}

// ExploreBuffersCtx is ExploreBuffers under an explicit context: the
// walk checkpoints ctx between capacity evaluations and every inner
// throughput analysis runs under the budget carried by ctx.
func ExploreBuffersCtx(ctx context.Context, g *Graph, opts BufferOptions) (*BufferResult, error) {
	var res *BufferResult
	err := guard.Protect("buffersizing", "explore", func() error {
		var err error
		res, err = buffersizing.ExploreCtx(ctx, g, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MinimalBufferCapacity returns the smallest capacity under which a
// channel can sustain a schedule in isolation.
func MinimalBufferCapacity(c Channel) int { return buffersizing.MinimalCapacity(c) }

// DataChannels returns the non-self-loop channels of g, the default
// buffer-sizing targets.
func DataChannels(g *Graph) []ChannelID { return buffersizing.DataChannels(g) }

// Simulation.
type (
	// Trace is the result of a self-timed simulation.
	Trace = sim.Trace
	// Firing is one completed firing in a trace.
	Firing = sim.Firing
)

// Simulate runs self-timed execution of g for the given number of
// iterations. The default work budget applies to the total firing
// count.
func Simulate(g *Graph, iterations int64) (*Trace, error) {
	return SimulateCtx(context.Background(), g, iterations)
}

// SimulateCtx is Simulate under an explicit context: the total firing
// count q·iterations is checked against the budget carried by ctx
// before the event loop starts, and every completed firing checkpoints
// the context.
func SimulateCtx(ctx context.Context, g *Graph, iterations int64) (*Trace, error) {
	var tr *Trace
	err := guard.Protect("simulate", "run", func() error {
		var err error
		tr, err = sim.RunCtx(ctx, g, iterations)
		return err
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// MeasuredPeriod estimates the iteration period from a simulation trace.
func MeasuredPeriod(tr *Trace, iterations int64) (Rat, error) {
	return sim.MeasuredPeriod(tr, iterations)
}

// Generators for the paper's example graphs.

// Figure1 builds the §4.1 regular prefetch graph with n A-actors.
func Figure1(n int) (*Graph, error) { return gen.Figure1(n) }

// Figure2 builds the worked abstraction example of Figure 2(a).
func Figure2() *Graph { return gen.Figure2() }

// Figure3 builds the symbolic-execution example of Figure 3.
func Figure3(rightExec int64) *Graph { return gen.Figure3(rightExec) }

// Prefetch builds the Figure-5 remote-memory-access model.
func Prefetch(blocks, window int) (*Graph, error) { return gen.Prefetch(blocks, window) }

// RandomGraph generates a random consistent live SDF graph.
func RandomGraph(rng *rand.Rand, opts gen.RandomOptions) (*Graph, error) {
	return gen.RandomGraph(rng, opts)
}

// RandomOptions parameterises RandomGraph.
type RandomOptions = gen.RandomOptions

// RandomRegular generates a random homogeneous regular graph of the kind
// the abstraction targets (groups of indexed copies with ring and
// inter-group channel families); InferAbstraction always succeeds on it.
func RandomRegular(rng *rand.Rand, opts gen.RegularOptions) (*Graph, error) {
	return gen.RandomRegular(rng, opts)
}

// RegularOptions parameterises RandomRegular.
type RegularOptions = gen.RegularOptions

// Serialisation.

// WriteText serialises g in the native text format.
func WriteText(w io.Writer, g *Graph) error { return sdfio.WriteText(w, g) }

// ParseText parses the native text format.
func ParseText(s string) (*Graph, error) { return sdfio.ParseText(s) }

// ReadText parses the native text format from a reader.
func ReadText(r io.Reader) (*Graph, error) { return sdfio.ReadText(r) }

// WriteXML serialises g as SDF3-style XML.
func WriteXML(w io.Writer, g *Graph) error { return sdfio.WriteXML(w, g) }

// ReadXML parses SDF3-style XML.
func ReadXML(r io.Reader) (*Graph, error) { return sdfio.ReadXML(r) }

// WriteJSON serialises g as JSON.
func WriteJSON(w io.Writer, g *Graph) error { return sdfio.WriteJSON(w, g) }

// ReadJSON parses the JSON form.
func ReadJSON(r io.Reader) (*Graph, error) { return sdfio.ReadJSON(r) }

// WriteDOT renders g as a Graphviz digraph.
func WriteDOT(w io.Writer, g *Graph) error { return sdfio.WriteDOT(w, g) }
