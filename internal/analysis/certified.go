package analysis

import (
	"context"
	"fmt"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/sdf"
	"repro/internal/verify"
)

// testTamperHSDF, when non-nil, rewrites the traditionally converted
// graph before the HSDF engine analyses it. It exists so tests can
// inject a verified-but-wrong answer through the documented trust gap
// of the HSDF anchor (its edge delays are not re-derivable from the
// original graph) and prove that hedged cross-checking surfaces the
// disagreement instead of returning the wrong result.
var testTamperHSDF func(*sdf.Graph) *sdf.Graph

// ComputeThroughputCertified is ComputeThroughputCtx returning a
// self-verifying certificate alongside the result: the engine's answer
// is packaged with a critical-cycle witness and a node-potential
// feasibility witness over the engine's reference precedence graph, and
// the certificate is validated by the independent checker of
// internal/verify before it is returned. A wrong engine answer fails
// witness extraction or the final check and comes back as an error, not
// as a result.
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
	if run.hsdf != nil {
		cert, err = verify.NewHSDFThroughputCert(ctx, g, run.hsdf, run.tp.Repetition, run.tp.Unbounded, run.tp.Period)
	} else {
		mc := &verify.MatrixCert{Matrix: run.sym.Matrix, Schedule: run.sym.Schedule}
		cert, err = verify.NewMatrixThroughputCert(ctx, g, mc, run.tp.Repetition, run.tp.Unbounded, run.tp.Period)
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
