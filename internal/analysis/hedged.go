package analysis

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// ErrEngineDisagreement marks two engines that both produced *verified*
// throughput certificates for the same graph but claim different
// answers. With the matrix anchor this cannot happen (its replays run
// on the graph itself); the HSDF anchor trusts the
// converted graph's edge set and delays, which is the documented gap a
// disagreement squeezes through.
var ErrEngineDisagreement = errors.New("analysis: verified engines disagree")

// DisagreementError carries both verified answers and their
// certificates so a caller (or a human) can adjudicate: each
// certificate pinpoints the reference precedence graph its engine's
// claim is provably exact for.
type DisagreementError struct {
	MethodA, MethodB Method
	ResultA, ResultB Throughput
	CertA, CertB     *verify.ThroughputCert
}

func (e *DisagreementError) Error() string {
	return fmt.Sprintf("analysis: verified engines disagree: %s proves %s, %s proves %s",
		e.MethodA, describeThroughput(e.ResultA), e.MethodB, describeThroughput(e.ResultB))
}

// Unwrap lets errors.Is(err, ErrEngineDisagreement) classify the error.
func (e *DisagreementError) Unwrap() error { return ErrEngineDisagreement }

func describeThroughput(tp Throughput) string {
	if tp.Unbounded {
		return "unbounded throughput"
	}
	return fmt.Sprintf("period %v", tp.Period)
}

// HedgeOptions configures ComputeThroughputHedgedOpts.
type HedgeOptions struct {
	// Engines lists the engines in the order the policy tries them; nil
	// means DefaultEngines.
	Engines []Method
	// CrossCheck runs every engine in turn instead of stopping at the
	// first verified answer, then compares all verified answers. The
	// winner is the first verified engine in Engines order; the price is
	// the summed time of every engine.
	CrossCheck bool
	// Gate, when non-nil, is consulted once per engine, in order, before
	// any engine runs. A non-nil error removes the engine from the
	// policy entirely — no run, no meter, no budget consumption — and
	// records it in the report as skipped with the error's text. The
	// serving layer points this at per-engine circuit breakers so a
	// tripped engine is shed instead of run. The gate error is surfaced
	// verbatim, and every engine the gate admitted gets exactly one
	// attempt in the report (run, or skipped with a nil error), so gates
	// that reserve state on admission (a half-open breaker's probe slot)
	// can settle it from the report.
	Gate func(m Method) error
}

// EngineAttempt records what happened to one engine of the hedged
// policy.
type EngineAttempt struct {
	// Method is the engine this attempt concerns.
	Method Method
	// Skipped is true when the engine was never run; Reason says why
	// (a gate shed it, an earlier engine answered, the context was
	// already done).
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

// HedgeReport explains a hedged throughput analysis: one attempt per
// engine, in the order they were considered, and the certificates of
// every engine that produced a verified answer.
type HedgeReport struct {
	// Attempts lists every engine of the policy in consideration order.
	Attempts []EngineAttempt
	// Winner is the engine that produced the result; only meaningful
	// when Answered is true.
	Winner Method
	// Answered is true when some engine produced a verified throughput.
	Answered bool
	// Certificates holds the verified certificate of every engine that
	// finished with an answer (the winner and any cross-checked peers).
	Certificates map[Method]*verify.ThroughputCert
}

// Lines renders the policy for humans, one line per engine attempt. A
// reason is cut at its first newline: an isolated panic's reason embeds
// a full stack trace, which belongs in logs, not in every report.
func (r *HedgeReport) Lines() []string {
	lines := make([]string, 0, len(r.Attempts))
	for _, a := range r.Attempts {
		reason, _, _ := strings.Cut(a.Reason, "\n")
		switch {
		case r.Answered && a.Method == r.Winner:
			reason = "answered"
		case a.Skipped:
			reason = "skipped: " + reason
		case a.Err != nil:
			reason = "failed: " + reason
		}
		lines = append(lines, fmt.Sprintf("%-11s %s", a.Method, reason))
	}
	return lines
}

// String renders Lines, each ended by a newline.
func (r *HedgeReport) String() string {
	var b strings.Builder
	for _, line := range r.Lines() {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// DefaultEngines returns the hedged policy's engines in the order it
// tries them when HedgeOptions.Engines is nil: the matrix engine first,
// the state-space and HSDF engines as its fallbacks.
func DefaultEngines() []Method { return []Method{Matrix, StateSpace, HSDF} }

// ComputeThroughputHedged runs the certified engines under the budget
// carried by ctx, one at a time: the first engine whose answer survives
// independent verification answers, and the engines after it do not
// run.
func ComputeThroughputHedged(ctx context.Context, g *sdf.Graph) (Throughput, *HedgeReport, error) {
	return ComputeThroughputHedgedOpts(ctx, g, HedgeOptions{})
}

// ComputeThroughputHedgedOpts is ComputeThroughputHedged with explicit
// options. It is one sequential certified policy: every engine is gated
// up front, in order; then the engines run in order behind panic
// isolation, each producing a self-verified certificate
// (ComputeThroughputCertified), and the next engine runs only when the
// previous one failed — an unverifiable answer, a budget refusal or an
// isolated panic. Engines that never run are recorded as skipped. With
// CrossCheck every engine runs, and if two engines both return
// *verified* but different answers the result is a *DisagreementError
// carrying both certificates — never a silent pick.
func ComputeThroughputHedgedOpts(ctx context.Context, g *sdf.Graph, opts HedgeOptions) (Throughput, *HedgeReport, error) {
	engines := opts.Engines
	if len(engines) == 0 {
		engines = DefaultEngines()
	}
	// The gate sheds engines before anything is spent on them: a gated
	// engine gets no run, no meter and no budget charge, only a skipped
	// line in the report.
	gated := make([]error, len(engines))
	if opts.Gate != nil {
		for i, m := range engines {
			gated[i] = opts.Gate(m)
		}
	}
	reg := obs.FromContext(ctx)
	rep := &HedgeReport{Certificates: make(map[Method]*verify.ThroughputCert)}
	results := make(map[Method]Throughput, len(engines))
	var errs []error
	for i, m := range engines {
		switch {
		case gated[i] != nil:
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Skipped: true, Reason: fmt.Sprintf("gated: %v", gated[i]), Err: gated[i],
			})
			errs = append(errs, fmt.Errorf("%v: %w", m, gated[i]))
			continue
		case rep.Answered && !opts.CrossCheck:
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Skipped: true, Reason: fmt.Sprintf("the %s engine answered first", rep.Winner),
			})
			continue
		case ctx.Err() != nil:
			rep.Attempts = append(rep.Attempts, EngineAttempt{
				Method: m, Skipped: true,
				Reason: fmt.Sprintf("context done before the engine could start (%v)", context.Cause(ctx)),
			})
			errs = append(errs, fmt.Errorf("%v: %w", m, context.Cause(ctx)))
			continue
		}
		start := reg.Now()
		tp, cert, err := ComputeThroughputCertified(ctx, g, m)
		at := EngineAttempt{Method: m, Wall: reg.Now().Sub(start)}
		switch {
		case err != nil:
			at.Reason, at.Err = err.Error(), err
			errs = append(errs, fmt.Errorf("%v: %w", m, err))
		case rep.Answered:
			at.Reason = fmt.Sprintf("verified, cross-checked against the %s engine", rep.Winner)
		default:
			rep.Winner, rep.Answered = m, true
		}
		if err == nil {
			results[m], rep.Certificates[m] = tp, cert
		}
		rep.Attempts = append(rep.Attempts, at)
	}
	for _, a := range rep.Attempts {
		outcome := attemptOutcome(a)
		reg.Counter(obs.MetricEngineAttempts, "engine", a.Method.String(), "outcome", outcome).Inc()
		if !a.Skipped {
			reg.Emit("hedge.attempt", "engine", a.Method.String(), "outcome", outcome, "wall", a.Wall.String())
		}
	}
	if !rep.Answered {
		reg.Counter(obs.MetricHedgeRaces, "outcome", "failed").Inc()
		return Throughput{}, rep, fmt.Errorf("analysis: no engine produced a verified throughput: %w", errors.Join(errs...))
	}
	winner := rep.Winner

	// Any second verified answer must agree with the winner's; a
	// conflict is structured evidence, not a coin flip.
	win := results[winner]
	for _, m := range engines {
		tp, ok := results[m]
		if m == winner || !ok {
			continue
		}
		if tp.Unbounded != win.Unbounded || (!tp.Unbounded && !tp.Period.Equal(win.Period)) {
			reg.Counter(obs.MetricHedgeRaces, "outcome", "disagreement").Inc()
			reg.Emit("hedge.disagreement", "winner", winner.String(), "peer", m.String())
			return Throughput{}, rep, &DisagreementError{
				MethodA: winner, MethodB: m,
				ResultA: win, ResultB: tp,
				CertA: rep.Certificates[winner], CertB: rep.Certificates[m],
			}
		}
	}
	reg.Counter(obs.MetricHedgeRaces, "outcome", "answered").Inc()
	reg.Counter(obs.MetricHedgeWins, "engine", winner.String()).Inc()
	return win, rep, nil
}
