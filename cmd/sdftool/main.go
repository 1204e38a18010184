// Command sdftool is the command-line front end of the sdfreduce library:
// it loads timed SDF graphs in the native text, SDF3-style XML or JSON
// formats and runs the analyses and reductions of the DAC'09 paper.
//
// Usage:
//
//	sdftool <command> [flags] <graph file>
//
// Commands:
//
//	info        structural summary: actors, channels, tokens, consistency
//	rv          repetition vector
//	throughput  iteration period and per-actor throughput (-method
//	            matrix|statespace|hsdf|hedged; -verify certifies
//	            the result and re-checks it in exact arithmetic)
//	latency     iteration latency report
//	convert     SDF→HSDF conversion (-algo symbolic|traditional)
//	abstract    apply the name-based abstraction and report the bound
//	unfold      N-fold unfolding of a homogeneous graph (-n)
//	simulate    self-timed simulation (-iterations)
//	matrix      symbolic max-plus iteration matrix, eigenvalue, eigenvector
//	lint        model-level diagnostics (-json, -passes pass1,pass2)
//	reduce      drive the reduction rules to fixpoint (-rules r1,r2 picks
//	            and orders the rules; -emit prints the reduced graph;
//	            -json emits the trace as JSON; -verify analyses the
//	            reduced graph, lifts the answer and re-checks the full
//	            certificate chain against the original)
//	report      self-contained Markdown analysis report
//	bottleneck  channels on the critical cycle (where tokens buy speed)
//	buffers     throughput/buffer-size Pareto exploration (-maxsteps)
//	fmt         convert between formats (-to text|xml|json|dot)
//	query       analyse through a running sdfserved daemon (-server,
//	            -method, -health) or a replica list (-addr url1,url2,...
//	            tried in order, falling through dead replicas); server
//	            errors map onto the same exit codes as local analyses;
//	            -exact-only refuses brownout answers (a degraded server
//	            answers 429 instead of a certified bound or stale result)
//	sadf        worst-case throughput of an FSM-SADF model (scenario
//	            graphs + a finite-state machine over them): locally, or
//	            through a daemon/fleet router with -server; -verify
//	            re-checks the certificate against the local parse of the
//	            model, rebuilding it from the wire payload for remote
//	            answers so the proof survives any proxy hop
//	batch       analyse a multi-graph file in one POST /v1/batch round
//	            trip (-server, -deadline shared across the batch, -method,
//	            -budget and -timeout applied per item, -json for the raw
//	            result). The input is concatenated native text (each
//	            graph starts at its "sdf <name>" header) or JSON (a wire
//	            batch object sent verbatim, or a single graph). Every
//	            item gets its own table row — ok, bounded, degraded or
//	            item-error — and the exit code reflects the worst item,
//	            so one poisoned graph in a 100-item batch never hides
//	            the 99 answers
//
// Every command accepts -timeout (a wall-clock deadline such as 500ms)
// and -budget (a uniform work cap on states, firings, HSDF actors and
// tokens; 0 keeps the defaults, negative lifts every cap). A file name
// of "-" reads standard input; -format overrides the format inferred
// from the file extension.
//
// Exit codes:
//
//	0  success
//	1  usage or I/O error (including malformed server responses and a
//	   request body over the server's wire cap — "too-large" — which no
//	   retry can fix)
//	2  model precondition failed (lint precheck, inconsistent rates,
//	   deadlocking cycle, error-level lint diagnostics)
//	3  work budget exceeded or deadline/cancellation hit
//	4  internal engine failure (isolated panic, verified-engine
//	   disagreement)
//	5  certificate verification failed: an engine produced an answer
//	   whose witness did not survive the independent exact-arithmetic
//	   check
//	6  analysis service unavailable: the sdfserved daemon refused the
//	   request (overloaded, draining, browned out with -exact-only set,
//	   or the engine's circuit breaker is open), the sdfrouter fleet
//	   had no alive replica, or every replica in a -addr list was
//	   unreachable — retry later
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	sdfreduce "repro"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdftool:", err)
		os.Exit(exitCode(err))
	}
}

// errLintDiagnostics marks a lint run that reported error-level
// diagnostics, so the process exits with the precondition code.
var errLintDiagnostics = errors.New("error-level diagnostics")

// exitCode maps an error to the documented process exit code. Budget
// and deadline conditions are checked first: they are the actionable
// ones (raise -budget, raise -timeout), and an engine error that
// ultimately stems from an exceeded budget should report the budget.
// Certificate failures are checked before generic engine failures so a
// rejected witness keeps its own code even when wrapped in an engine
// error. Errors relayed from an sdfserved daemon (remoteError) carry
// the server's classification and map onto the same table.
func exitCode(err error) int {
	var re *remoteError
	var be *batchError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &re):
		return re.exitCode()
	case errors.As(err, &be):
		return be.code
	case errors.Is(err, sdfreduce.ErrBudgetExceeded),
		errors.Is(err, sdfreduce.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return 3
	case errors.Is(err, sdfreduce.ErrCertificateInvalid):
		return 5
	case errors.Is(err, sdfreduce.ErrEngineFailed):
		return 4
	case isPrecondition(err):
		return 2
	default:
		return 1
	}
}

func isPrecondition(err error) bool {
	var pre *sdfreduce.PrecheckError
	return errors.As(err, &pre) ||
		errors.Is(err, sdfreduce.ErrInconsistent) ||
		errors.Is(err, sdfreduce.ErrDeadlockCycle) ||
		errors.Is(err, errLintDiagnostics)
}

// graphFunc is one sdftool command: it runs under the context built
// from the global -timeout/-budget flags.
type graphFunc func(context.Context, io.Writer, *sdfreduce.Graph) error

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return usageError()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "info":
		return withGraph(rest, out, cmdInfo, nil)
	case "rv":
		return withGraph(rest, out, cmdRV, nil)
	case "throughput":
		fs := flag.NewFlagSet("throughput", flag.ContinueOnError)
		method := fs.String("method", "matrix", "engine: matrix, statespace, hsdf or hedged")
		verifyF := fs.Bool("verify", false, "certify the result and re-check it with the independent exact-arithmetic checker")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return cmdThroughput(ctx, w, g, *method, *verifyF)
		}, fs)
	case "latency":
		return withGraph(rest, out, cmdLatency, nil)
	case "convert":
		fs := flag.NewFlagSet("convert", flag.ContinueOnError)
		algo := fs.String("algo", "symbolic", "algorithm: symbolic (the paper's) or traditional")
		emit := fs.Bool("emit", false, "print the converted graph instead of its statistics")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return cmdConvert(ctx, w, g, *algo, *emit)
		}, fs)
	case "abstract":
		fs := flag.NewFlagSet("abstract", flag.ContinueOnError)
		emit := fs.Bool("emit", false, "print the abstract graph instead of the analysis")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return cmdAbstract(w, g, *emit)
		}, fs)
	case "unfold":
		fs := flag.NewFlagSet("unfold", flag.ContinueOnError)
		n := fs.Int("n", 2, "unfolding factor")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			u, err := sdfreduce.Unfold(g, *n)
			if err != nil {
				return err
			}
			return sdfreduce.WriteText(w, u)
		}, fs)
	case "simulate":
		fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
		iters := fs.Int64("iterations", 10, "number of graph iterations to simulate")
		traceF := fs.Bool("trace", false, "print every firing")
		gantt := fs.Bool("gantt", false, "render a textual Gantt chart")
		vcd := fs.String("vcd", "", "write a VCD waveform dump to this file")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return cmdSimulate(ctx, w, g, *iters, *traceF, *gantt, *vcd)
		}, fs)
	case "lint":
		fs := flag.NewFlagSet("lint", flag.ContinueOnError)
		asJSON := fs.Bool("json", false, "emit the report as JSON")
		passes := fs.String("passes", "", "comma-separated pass names (default: all)")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return cmdLint(w, g, *asJSON, *passes)
		}, fs)
	case "reduce":
		fs := flag.NewFlagSet("reduce", flag.ContinueOnError)
		rules := fs.String("rules", "", "comma-separated rule names in application order (default: the exact rules)")
		emit := fs.Bool("emit", false, "print the reduced graph instead of the summary")
		asJSON := fs.Bool("json", false, "emit the reduction trace as JSON")
		verifyF := fs.Bool("verify", false, "analyse the reduced graph, lift the answer and re-check the certificate chain against the original")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return cmdReduce(ctx, w, g, *rules, *emit, *asJSON, *verifyF)
		}, fs)
	case "matrix":
		return withGraph(rest, out, cmdMatrix, nil)
	case "report":
		return withGraph(rest, out, cmdReport, nil)
	case "bottleneck":
		return withGraph(rest, out, cmdBottleneck, nil)
	case "buffers":
		fs := flag.NewFlagSet("buffers", flag.ContinueOnError)
		steps := fs.Int("maxsteps", 256, "maximum number of capacity increases")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return cmdBuffers(ctx, w, g, *steps)
		}, fs)
	case "fmt":
		fs := flag.NewFlagSet("fmt", flag.ContinueOnError)
		to := fs.String("to", "text", "output format: text, xml, json or dot")
		return withGraph(rest, out, func(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
			return writeAs(w, g, *to)
		}, fs)
	case "query":
		return cmdQuery(rest, out)
	case "sadf":
		return cmdSADF(rest, out)
	case "batch":
		return cmdBatch(rest, out)
	case "help", "-h", "--help":
		return usageError()
	default:
		return fmt.Errorf("unknown command %q (try 'sdftool help')", cmd)
	}
}

func usageError() error {
	return fmt.Errorf("usage: sdftool <info|rv|throughput|latency|convert|abstract|unfold|simulate|lint|reduce|matrix|report|bottleneck|buffers|fmt|query|sadf|batch> [flags] <graph file>")
}

// withGraph parses flags (when fs is non-nil), loads the graph named by
// the remaining argument, builds the analysis context from the global
// -timeout/-budget flags and invokes fn under it.
func withGraph(args []string, out io.Writer, fn graphFunc, fs *flag.FlagSet) error {
	if fs == nil {
		fs = flag.NewFlagSet("cmd", flag.ContinueOnError)
	}
	format := fs.String("format", "", "input format: text, xml or json (default: by extension)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the analysis (0 = none)")
	budget := fs.Int64("budget", 0, "uniform work cap on states/firings/actors/tokens (0 = defaults, negative = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one graph file argument")
	}
	g, err := loadGraph(fs.Arg(0), *format)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *budget != 0 {
		ctx = sdfreduce.WithBudget(ctx, sdfreduce.UniformBudget(*budget))
	}
	return fn(ctx, out, g)
}

func loadGraph(path, format string) (*sdfreduce.Graph, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if format == "" {
		switch strings.ToLower(filepath.Ext(path)) {
		case ".xml":
			format = "xml"
		case ".json":
			format = "json"
		default:
			format = "text"
		}
	}
	switch format {
	case "text":
		return sdfreduce.ReadText(r)
	case "xml":
		return sdfreduce.ReadXML(r)
	case "json":
		return sdfreduce.ReadJSON(r)
	default:
		return nil, fmt.Errorf("unknown input format %q", format)
	}
}

func writeAs(w io.Writer, g *sdfreduce.Graph, format string) error {
	switch format {
	case "text":
		return sdfreduce.WriteText(w, g)
	case "xml":
		return sdfreduce.WriteXML(w, g)
	case "json":
		return sdfreduce.WriteJSON(w, g)
	case "dot":
		return sdfreduce.WriteDOT(w, g)
	default:
		return fmt.Errorf("unknown output format %q", format)
	}
}

func cmdInfo(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
	fmt.Fprintf(w, "graph:      %s\n", g.Name())
	fmt.Fprintf(w, "actors:     %d\n", g.NumActors())
	fmt.Fprintf(w, "channels:   %d\n", g.NumChannels())
	fmt.Fprintf(w, "tokens:     %d\n", g.TotalInitialTokens())
	fmt.Fprintf(w, "homogeneous: %v\n", g.IsHSDF())
	fmt.Fprintf(w, "connected:  %v\n", g.IsConnected())
	fmt.Fprintf(w, "strongly connected: %v\n", g.IsStronglyConnected())
	if q, err := sdfreduce.RepetitionVector(g); err != nil {
		fmt.Fprintf(w, "consistent: false (%v)\n", err)
	} else {
		var sum int64
		for _, v := range q {
			sum += v
		}
		fmt.Fprintf(w, "consistent: true\n")
		fmt.Fprintf(w, "iteration length: %d\n", sum)
		fmt.Fprintf(w, "live:       %v\n", sdfreduce.IsLive(g))
	}
	return nil
}

func cmdRV(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
	q, err := sdfreduce.RepetitionVector(g)
	if err != nil {
		return err
	}
	for i, v := range q {
		fmt.Fprintf(w, "%-16s %d\n", g.Actor(sdfreduce.ActorID(i)).Name, v)
	}
	return nil
}

func cmdThroughput(ctx context.Context, w io.Writer, g *sdfreduce.Graph, methodName string, verified bool) error {
	var method sdfreduce.Method
	switch methodName {
	case "matrix":
		method = sdfreduce.MethodMatrix
	case "statespace":
		method = sdfreduce.MethodStateSpace
	case "hsdf":
		method = sdfreduce.MethodHSDF
	case "hedged":
		return cmdThroughputHedged(ctx, w, g)
	default:
		return fmt.Errorf("unknown method %q (matrix, statespace, hsdf, hedged)", methodName)
	}
	if verified {
		tp, cert, err := sdfreduce.ComputeThroughputCertified(ctx, g, method)
		if err != nil {
			return err
		}
		printThroughput(w, g, tp, method.String())
		fmt.Fprintf(w, "verified: %s\n", cert)
		return nil
	}
	tp, err := sdfreduce.ComputeThroughputCtx(ctx, g, method)
	if err != nil {
		return err
	}
	printThroughput(w, g, tp, method.String())
	return nil
}

func cmdThroughputHedged(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
	tp, rep, err := sdfreduce.ComputeThroughputHedged(ctx, g)
	if rep != nil {
		fmt.Fprintln(w, "engine race:")
		for _, line := range rep.Lines() {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if err != nil {
		return err
	}
	printThroughput(w, g, tp, rep.Winner.String())
	if cert := rep.Certificates[rep.Winner]; cert != nil {
		fmt.Fprintf(w, "verified: %s\n", cert)
	}
	return nil
}

func printThroughput(w io.Writer, g *sdfreduce.Graph, tp sdfreduce.Throughput, engine string) {
	if tp.Unbounded {
		fmt.Fprintln(w, "throughput: unbounded (no dependency cycle constrains the steady state)")
		return
	}
	fmt.Fprintf(w, "iteration period: %v (engine: %s)\n", tp.Period, engine)
	for i := 0; i < g.NumActors(); i++ {
		tau, err := tp.ActorThroughput(sdfreduce.ActorID(i))
		if err != nil {
			fmt.Fprintf(w, "  τ(%-12s) = ?\n", g.Actor(sdfreduce.ActorID(i)).Name)
			continue
		}
		fmt.Fprintf(w, "  τ(%-12s) = %v\n", g.Actor(sdfreduce.ActorID(i)).Name, tau)
	}
}

func cmdLatency(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
	rep, err := sdfreduce.ComputeLatencyCtx(ctx, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "iteration makespan:  %d\n", rep.Makespan)
	fmt.Fprintf(w, "max token latency:   %d (token %d -> token %d)\n",
		rep.MaxTokenLatency, rep.CriticalSource, rep.CriticalTarget)
	for k, p := range rep.TokenProduction {
		fmt.Fprintf(w, "  token %3d produced at %d\n", k, p)
	}
	return nil
}

func cmdConvert(ctx context.Context, w io.Writer, g *sdfreduce.Graph, algo string, emit bool) error {
	switch algo {
	case "symbolic":
		h, r, stats, err := sdfreduce.ConvertSymbolicCtx(ctx, g)
		if err != nil {
			return err
		}
		if emit {
			return sdfreduce.WriteText(w, h)
		}
		fmt.Fprintf(w, "novel conversion of %s:\n", g.Name())
		fmt.Fprintf(w, "  initial tokens N:  %d\n", r.NumTokens())
		fmt.Fprintf(w, "  actors:            %d (matrix %d, mux %d, demux %d; bound N(N+2) = %d)\n",
			stats.Actors(), stats.MatrixActors, stats.MuxActors, stats.DemuxActors,
			r.NumTokens()*(r.NumTokens()+2))
		fmt.Fprintf(w, "  channels:          %d\n", stats.Edges)
		fmt.Fprintf(w, "  tokens:            %d\n", stats.Tokens)
		if stats.DroppedEntries > 0 {
			fmt.Fprintf(w, "  dropped non-recurrent coefficients: %d\n", stats.DroppedEntries)
		}
		return nil
	case "traditional":
		h, stats, err := sdfreduce.ConvertTraditionalCtx(ctx, g)
		if err != nil {
			return err
		}
		if emit {
			return sdfreduce.WriteText(w, h)
		}
		fmt.Fprintf(w, "traditional conversion of %s:\n", g.Name())
		fmt.Fprintf(w, "  actors:   %d (= iteration length)\n", stats.Actors)
		fmt.Fprintf(w, "  channels: %d\n", stats.Edges)
		fmt.Fprintf(w, "  tokens:   %d\n", stats.Tokens)
		return nil
	default:
		return fmt.Errorf("unknown algorithm %q (symbolic, traditional)", algo)
	}
}

func cmdAbstract(w io.Writer, g *sdfreduce.Graph, emit bool) error {
	ab, err := sdfreduce.InferAbstraction(g)
	if err != nil {
		return fmt.Errorf("inferring abstraction: %w", err)
	}
	abstract, res, err := sdfreduce.Abstract(g, ab)
	if err != nil {
		return err
	}
	if emit {
		return sdfreduce.WriteText(w, abstract)
	}
	fmt.Fprintf(w, "abstraction of %s: %d actors -> %d abstract actors (N = %d, pruned %d channels)\n",
		g.Name(), g.NumActors(), abstract.NumActors(), res.N, res.PrunedChannels)
	if g.IsHSDF() {
		if err := sdfreduce.VerifyAbstractionConservative(g, ab); err != nil {
			return fmt.Errorf("conservativity proof failed: %w", err)
		}
		fmt.Fprintln(w, "conservativity: proved via N-fold unfolding (Theorem 1)")
		r, err := sdfreduce.MaxCycleMean(abstract)
		if err != nil {
			return err
		}
		if r.HasCycle {
			bound, err := sdfreduce.AbstractionThroughputBound(r.CycleMean, res.N)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "abstract period:  %v\n", r.CycleMean)
			fmt.Fprintf(w, "throughput bound: τ(a) >= %v for every actor\n", bound)
		}
	} else {
		fmt.Fprintln(w, "conservativity: multirate graph; validate empirically (see 'simulate')")
	}
	return nil
}

func cmdSimulate(ctx context.Context, w io.Writer, g *sdfreduce.Graph, iterations int64, traceFirings, gantt bool, vcdPath string) error {
	tr, err := sdfreduce.SimulateCtx(ctx, g, iterations)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated %d iterations, %d firings, horizon %d\n",
		iterations, len(tr.Firings), tr.Horizon)
	if iterations >= 2 {
		if p, err := sdfreduce.MeasuredPeriod(tr, iterations); err == nil {
			fmt.Fprintf(w, "measured iteration period: %v\n", p)
		}
	}
	if traceFirings {
		for _, f := range tr.Firings {
			fmt.Fprintf(w, "  %6d..%-6d %s #%d\n", f.Start, f.End, g.Actor(f.Actor).Name, f.Index)
		}
	}
	if gantt {
		if err := trace.WriteGantt(w, tr, trace.GanttOptions{}); err != nil {
			return err
		}
	}
	if vcdPath != "" {
		f, err := os.Create(vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteVCD(f, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote VCD waveform to %s\n", vcdPath)
	}
	return nil
}

func cmdBuffers(ctx context.Context, w io.Writer, g *sdfreduce.Graph, maxSteps int) error {
	res, err := sdfreduce.ExploreBuffersCtx(ctx, g, sdfreduce.BufferOptions{MaxSteps: maxSteps})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "unbounded-buffer iteration period: %v\n", res.UnboundedPeriod)
	fmt.Fprintf(w, "%-14s %-14s %s\n", "total buffer", "period", "capacities")
	for _, p := range res.Pareto {
		fmt.Fprintf(w, "%-14d %-14v", p.Total, p.Period)
		for _, id := range sdfreduce.DataChannels(g) {
			if cap, ok := p.Capacities[id]; ok {
				c := g.Channel(id)
				fmt.Fprintf(w, " %s->%s:%d", g.Actor(c.Src).Name, g.Actor(c.Dst).Name, cap)
			}
		}
		fmt.Fprintln(w)
	}
	if res.Converged {
		fmt.Fprintln(w, "converged: the staircase reaches the unbounded-buffer period")
	} else {
		fmt.Fprintln(w, "not converged within the step budget")
	}
	return nil
}

func cmdLint(w io.Writer, g *sdfreduce.Graph, asJSON bool, passes string) error {
	var opts sdfreduce.LintOptions
	if passes != "" {
		opts.Passes = strings.Split(passes, ",")
	}
	rep, err := sdfreduce.Lint(g, opts)
	if err != nil {
		return err
	}
	if asJSON {
		if err := rep.WriteJSON(w); err != nil {
			return err
		}
	} else {
		fmt.Fprint(w, rep)
	}
	if n := rep.Count(sdfreduce.LintError); n > 0 {
		return fmt.Errorf("lint: %d %w", n, errLintDiagnostics)
	}
	return nil
}

func cmdMatrix(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
	r, err := sdfreduce.SymbolicIteration(g)
	if err != nil {
		return err
	}
	n := r.NumTokens()
	fmt.Fprintf(w, "initial tokens: %d\n", n)
	fmt.Fprintln(w, "iteration matrix (row k lists the dependencies of new token k):")
	fmt.Fprint(w, r.Matrix)
	lam, ok, err := r.Matrix.Eigenvalue()
	if err != nil {
		return err
	}
	if !ok {
		fmt.Fprintln(w, "eigenvalue: none (acyclic dependency structure; throughput unbounded)")
		return nil
	}
	fmt.Fprintf(w, "eigenvalue (iteration period): %v\n", lam)
	v, scale, err := r.Matrix.Eigenvector()
	if err != nil {
		fmt.Fprintf(w, "eigenvector: %v\n", err)
		return nil
	}
	fmt.Fprintf(w, "eigenvector (token offsets, scaled by %d): %v\n", scale, v)
	fmt.Fprintln(w, "(release token k at offset v_k/scale for an immediately periodic schedule)")
	return nil
}

func cmdBottleneck(ctx context.Context, w io.Writer, g *sdfreduce.Graph) error {
	res, err := sdfreduce.FindBottleneck(g)
	if err != nil {
		return err
	}
	if res.Unbounded {
		fmt.Fprintln(w, "no bottleneck: throughput is unbounded")
		return nil
	}
	fmt.Fprintf(w, "iteration period: %v\n", res.Period)
	fmt.Fprintf(w, "critical tokens:  %v\n", res.CriticalTokens)
	fmt.Fprintln(w, "critical channels (tokens here pace the whole graph):")
	for _, id := range res.CriticalChannels {
		c := g.Channel(id)
		fmt.Fprintf(w, "  %s -> %s (tokens: %d)\n",
			g.Actor(c.Src).Name, g.Actor(c.Dst).Name, c.Initial)
	}
	return nil
}
