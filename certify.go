package sdfreduce

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// Verification layer (internal/verify): analysis results can be
// returned together with a certificate — a self-contained witness
// checked in exact arithmetic by code independent of the engine that
// produced the result. A certificate that does not re-verify never
// reaches the caller as a result.
type (
	// Certificate is a checkable witness for one analysis result.
	Certificate = verify.Certificate
	// CertificateKind discriminates the certificate types.
	CertificateKind = verify.Kind
	// RepetitionCert certifies a minimal repetition vector.
	RepetitionCert = verify.RepetitionCert
	// ScheduleCert certifies a single-iteration sequential schedule.
	ScheduleCert = verify.ScheduleCert
	// MatrixCert certifies a max-plus iteration matrix by concrete
	// replays of the schedule it was derived from.
	MatrixCert = verify.MatrixCert
	// ThroughputCert certifies an iteration period with a paired
	// critical token set (lower bound) and token potentials (upper
	// bound), checked by replaying one iteration's schedule.
	ThroughputCert = verify.ThroughputCert
	// TraceCert certifies a timed simulation trace by event replay.
	TraceCert = verify.TraceCert
	// AbstractionCert certifies a Theorem-1 conservative throughput
	// bound, inner period certificate included.
	AbstractionCert = verify.AbstractionCert

	// HedgeOptions configures ComputeThroughputHedgedOpts.
	HedgeOptions = analysis.HedgeOptions
	// HedgeReport explains a hedged analysis: per-engine attempts plus
	// the winner's verified certificate.
	HedgeReport = analysis.HedgeReport
)

// Certificate kinds.
const (
	KindRepetition  = verify.KindRepetition
	KindSchedule    = verify.KindSchedule
	KindMatrix      = verify.KindMatrix
	KindThroughput  = verify.KindThroughput
	KindTrace       = verify.KindTrace
	KindAbstraction = verify.KindAbstraction
)

// ErrCertificateInvalid is wrapped by every certificate rejection; test
// with errors.Is.
var ErrCertificateInvalid = verify.ErrInvalid

// CheckCertificate validates any certificate against g with the
// independent checker; it returns nil exactly when the certified claim
// holds for g.
func CheckCertificate(ctx context.Context, g *Graph, c Certificate) error {
	return c.Check(ctx, g)
}

// ComputeThroughputCertified analyses g with the chosen engine and
// returns the result together with a verified throughput certificate:
// one iteration schedule of g with potentials over its initial tokens
// and the tokens of a critical cycle, checked by replaying the schedule
// on g in exact arithmetic, independently of the engine. Every engine
// returns this same certificate. Its size is linear in the initial
// tokens, which the HSDF engine charges against the budget's MaxStates
// (ErrBudgetExceeded past it).
func ComputeThroughputCertified(ctx context.Context, g *Graph, m Method) (Throughput, *ThroughputCert, error) {
	if err := lint.Precheck(g); err != nil {
		return Throughput{}, nil, err
	}
	return analysis.ComputeThroughputCertified(ctx, g, m)
}

// ComputeThroughputHedged runs the certified engines one at a time
// under the budget carried by ctx, matrix first: the next engine runs
// only when the previous one failed or was refused by its budget, and
// the first independently verified answer wins; the report carries its
// certificate.
func ComputeThroughputHedged(ctx context.Context, g *Graph) (Throughput, *HedgeReport, error) {
	if err := lint.Precheck(g); err != nil {
		return Throughput{}, nil, err
	}
	return analysis.ComputeThroughputHedged(ctx, g)
}

// ComputeThroughputHedgedOpts is ComputeThroughputHedged with explicit
// options: a gate that can shed engines before any runs.
func ComputeThroughputHedgedOpts(ctx context.Context, g *Graph, opts HedgeOptions) (Throughput, *HedgeReport, error) {
	if err := lint.Precheck(g); err != nil {
		return Throughput{}, nil, err
	}
	return analysis.ComputeThroughputHedgedOpts(ctx, g, opts)
}

// CertifyRepetitionVector solves the balance equations of g and returns
// the repetition vector with a certificate of balance and minimality,
// already validated.
func CertifyRepetitionVector(ctx context.Context, g *Graph) ([]int64, *RepetitionCert, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, nil, err
	}
	cert := &verify.RepetitionCert{Q: q}
	if err := cert.Check(ctx, g); err != nil {
		return nil, nil, err
	}
	return q, cert, nil
}

// CertifySchedule builds a single-iteration sequential schedule and
// returns it with a certificate that replays it against the token
// semantics (no underflow, marking restored, minimal firing counts).
func CertifySchedule(ctx context.Context, g *Graph) ([]ActorID, *ScheduleCert, error) {
	sched, err := schedule.Sequential(g)
	if err != nil {
		return nil, nil, err
	}
	cert := &verify.ScheduleCert{Schedule: sched}
	if err := cert.Check(ctx, g); err != nil {
		return nil, nil, err
	}
	return sched, cert, nil
}

// CertifyIterationMatrix runs the paper's symbolic iteration (Algorithm
// 1) and returns the result with a certificate that cross-checks the
// matrix against concrete replays of the same schedule — every entry,
// exactly, within the documented replay budget.
func CertifyIterationMatrix(ctx context.Context, g *Graph) (*SymbolicResult, *MatrixCert, error) {
	if err := lint.Precheck(g); err != nil {
		return nil, nil, err
	}
	r, err := core.SymbolicIterationCtx(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	cert := &verify.MatrixCert{Matrix: r.Matrix, Schedule: r.Schedule}
	if err := cert.Check(ctx, g); err != nil {
		return nil, nil, err
	}
	return r, cert, nil
}

// SimulateCertified runs self-timed execution of g and returns the
// trace with a certificate that replays it event by event: exact
// execution times, exact firing counts, no buffer underflow, and a
// return to the initial marking.
func SimulateCertified(ctx context.Context, g *Graph, iterations int64) (*Trace, *TraceCert, error) {
	tr, err := SimulateCtx(ctx, g, iterations)
	if err != nil {
		return nil, nil, err
	}
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, nil, err
	}
	firings := make([]verify.TraceFiring, len(tr.Firings))
	for i, f := range tr.Firings {
		firings[i] = verify.TraceFiring{Actor: f.Actor, Start: f.Start, End: f.End}
	}
	cert := &verify.TraceCert{Iterations: iterations, Q: q, Firings: firings}
	if err := cert.Check(ctx, g); err != nil {
		return nil, nil, err
	}
	return tr, cert, nil
}

// CertifyAbstraction certifies the Theorem-1 bound of an abstraction of
// a homogeneous graph: the §5 proof obligation is discharged
// mechanically, the abstract graph's period is certified by an inner
// throughput certificate, and the returned bound 1/(N·Λ′) holds for
// every actor of g.
func CertifyAbstraction(ctx context.Context, g *Graph, ab *Abstraction) (Rat, *AbstractionCert, error) {
	abstract, res, err := core.Abstract(g, ab)
	if err != nil {
		return Rat{}, nil, err
	}
	tp, inner, err := analysis.ComputeThroughputCertified(ctx, abstract, analysis.Matrix)
	if err != nil {
		return Rat{}, nil, err
	}
	if tp.Unbounded {
		return Rat{}, nil, fmt.Errorf("%w: abstract graph has unbounded throughput, no finite bound exists", ErrCertificateInvalid)
	}
	bound, err := core.ThroughputBound(tp.Period, res.N)
	if err != nil {
		return Rat{}, nil, err
	}
	cert := &verify.AbstractionCert{
		Alpha: ab.Alpha, Index: ab.Index, N: res.N,
		AbstractPeriod: tp.Period, Bound: bound, Inner: inner,
	}
	if err := cert.Check(ctx, g); err != nil {
		return Rat{}, nil, err
	}
	return bound, cert, nil
}
