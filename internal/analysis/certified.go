package analysis

import (
	"context"
	"fmt"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// ComputeThroughputCertified is ComputeThroughputCtx returning a
// self-verifying certificate alongside the result: every engine's
// answer is packaged with one iteration schedule of g, potentials over
// g's initial tokens and a critical token set (or a topological order),
// and the certificate is validated by the independent checker of
// internal/verify, which replays the schedule on g, before it is
// returned. A wrong engine answer fails witness extraction or the final
// check and comes back as an error, not as a result.
func ComputeThroughputCertified(ctx context.Context, g *sdf.Graph, method Method) (Throughput, *verify.ThroughputCert, error) {
	var run engineRun
	var cert *verify.ThroughputCert
	err := guard.Protect(method.String(), "certified-throughput", func() error {
		var err error
		if run, err = runEngine(ctx, g, method); err == nil {
			cert, err = certify(ctx, g, method, run)
		}
		if err != nil {
			return fmt.Errorf("analysis: certified %v: %w", method, err)
		}
		return nil
	})
	if err != nil {
		return Throughput{}, nil, err
	}
	return run.tp, cert, nil
}

// certify builds the certificate of one engine run and checks it
// against g, timing both in the analysis.certify span.
func certify(ctx context.Context, g *sdf.Graph, method Method, run engineRun) (*verify.ThroughputCert, error) {
	sp := obs.FromContext(ctx).StartSpan("analysis.certify", "engine", method.String())
	var cert *verify.ThroughputCert
	var err error
	if run.conv != nil {
		var sched []sdf.ActorID
		if sched, err = schedule.SequentialCtx(ctx, g); err == nil {
			cert, err = verify.NewHSDFThroughputCert(ctx, g, run.conv, sched, run.tp.Repetition,
				run.tp.Unbounded, run.tp.Period, run.cycle)
		}
	} else {
		cert, err = verify.NewMatrixThroughputCert(ctx, run.sym.Matrix, run.sym.Schedule,
			run.tp.Repetition, run.tp.Unbounded, run.tp.Period, run.critical)
	}
	if err != nil {
		sp.Finish("outcome", "error")
		return nil, err
	}
	if err := cert.Check(ctx, g); err != nil {
		sp.Finish("outcome", "invalid")
		return nil, err
	}
	sp.Finish("outcome", "verified")
	return cert, nil
}
