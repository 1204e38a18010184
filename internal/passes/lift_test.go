package passes_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/lint"
	"repro/internal/passes"
	"repro/internal/sdfio"
)

// TestLiftAgreesWithCertificate reduces every corpus graph under all
// registered rules, certifies the reduced graph with the matrix engine
// and holds the one lift to its certificate: Reduction.Lift returns the
// period, Bound and Unbounded of the lifted certificate, Bound is set
// exactly for inexact chains, and the certificate re-checks against the
// original in internal/verify's independent arithmetic. The reduced
// graph also never prices above the original, which is what lets
// admission charge the reduced price without taking a minimum.
func TestLiftAgreesWithCertificate(t *testing.T) {
	ctx := context.Background()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "graphs", "*.sdf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus graphs: %v", err)
	}
	bounds := 0
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sdfio.ParseText(string(b))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		facts := passes.NewFacts(g)
		if err := lint.PrecheckWith(facts); err != nil {
			t.Fatalf("%s: precheck: %v", p, err)
		}
		price := facts.Cost()
		red, err := facts.Reduce(ctx, passes.Options{Rules: passes.AllRules()})
		if err != nil {
			t.Fatalf("%s: reduce: %v", p, err)
		}
		_, inner, err := analysis.ComputeThroughputCertified(ctx, red.Final, analysis.Matrix)
		if err != nil {
			t.Fatalf("%s: certify reduced graph: %v", p, err)
		}
		cert, err := red.LiftCert(inner)
		if err != nil {
			t.Fatalf("%s: LiftCert: %v", p, err)
		}
		v, err := red.Lift(passes.Value{Period: inner.Period, Unbounded: inner.Unbounded})
		if err != nil {
			t.Fatalf("%s: Lift: %v", p, err)
		}
		if v.Unbounded != cert.Unbounded || v.Bound != cert.Bound || !v.Period.Equal(cert.Period) {
			t.Errorf("%s: lift %+v, certificate period %v bound %v unbounded %v",
				p, v, cert.Period, cert.Bound, cert.Unbounded)
		}
		if v.Bound != !red.Exact {
			t.Errorf("%s: lift bound %v on a chain with exact %v", p, v.Bound, red.Exact)
		}
		if err := cert.Check(ctx, g); err != nil {
			t.Errorf("%s: lifted certificate rejected: %v\ntrace: %v", p, err, red.Trace())
		}
		if got := red.Facts().Cost(); got > price {
			t.Errorf("%s: reduced price %d exceeds the original's %d", p, got, price)
		}
		if v.Bound {
			bounds++
		}
	}
	if bounds == 0 {
		t.Fatal("no corpus chain crossed an inexact step, so the bounded lift went untested")
	}
}
