package sdfreduce

import (
	"context"
	"errors"
	"testing"

	"repro/internal/rat"
)

// Every certified facade entry point must return a certificate the
// independent checker accepts, and the checker must reject a
// deliberately corrupted one.
func TestCertifiedFacadeEntryPoints(t *testing.T) {
	g := Figure2()
	ctx := context.Background()

	q, qc, err := CertifyRepetitionVector(ctx, g)
	if err != nil {
		t.Fatalf("CertifyRepetitionVector: %v", err)
	}
	if qc.Kind() != KindRepetition || CheckCertificate(ctx, g, qc) != nil {
		t.Error("repetition certificate does not re-verify")
	}
	doubled := make([]int64, len(q))
	for i, v := range q {
		doubled[i] = 2 * v
	}
	if err := CheckCertificate(ctx, g, &RepetitionCert{Q: doubled}); !errors.Is(err, ErrCertificateInvalid) {
		t.Errorf("doubled repetition vector accepted: %v", err)
	}

	sched, sc, err := CertifySchedule(ctx, g)
	if err != nil {
		t.Fatalf("CertifySchedule: %v", err)
	}
	if sc.Kind() != KindSchedule || CheckCertificate(ctx, g, sc) != nil {
		t.Error("schedule certificate does not re-verify")
	}
	if err := CheckCertificate(ctx, g, &ScheduleCert{Schedule: sched[:len(sched)-1]}); !errors.Is(err, ErrCertificateInvalid) {
		t.Errorf("truncated schedule accepted: %v", err)
	}

	r, mc, err := CertifyIterationMatrix(ctx, g)
	if err != nil {
		t.Fatalf("CertifyIterationMatrix: %v", err)
	}
	if r == nil || mc.Kind() != KindMatrix || CheckCertificate(ctx, g, mc) != nil {
		t.Error("matrix certificate does not re-verify")
	}

	tr, tc, err := SimulateCertified(ctx, g, 3)
	if err != nil {
		t.Fatalf("SimulateCertified: %v", err)
	}
	if tr == nil || tc.Kind() != KindTrace || CheckCertificate(ctx, g, tc) != nil {
		t.Error("trace certificate does not re-verify")
	}
	tampered := *tc
	tampered.Iterations = tc.Iterations + 1
	if err := CheckCertificate(ctx, g, &tampered); !errors.Is(err, ErrCertificateInvalid) {
		t.Errorf("trace with wrong iteration count accepted: %v", err)
	}

	for _, m := range []Method{MethodMatrix, MethodStateSpace, MethodHSDF} {
		tp, cert, err := ComputeThroughputCertified(ctx, g, m)
		if err != nil {
			t.Fatalf("ComputeThroughputCertified(%v): %v", m, err)
		}
		if cert.Kind() != KindThroughput || CheckCertificate(ctx, g, cert) != nil {
			t.Errorf("%v: throughput certificate does not re-verify", m)
		}
		corrupt := *cert
		bumped, err := tp.Period.Add(rat.FromInt(1))
		if err != nil {
			t.Fatal(err)
		}
		corrupt.Period = bumped
		if err := CheckCertificate(ctx, g, &corrupt); !errors.Is(err, ErrCertificateInvalid) {
			t.Errorf("%v: corrupted period accepted: %v", m, err)
		}
	}

	ab, err := InferAbstraction(g)
	if err != nil {
		t.Fatalf("InferAbstraction: %v", err)
	}
	bound, ac, err := CertifyAbstraction(ctx, g, ab)
	if err != nil {
		t.Fatalf("CertifyAbstraction: %v", err)
	}
	if ac.Kind() != KindAbstraction || CheckCertificate(ctx, g, ac) != nil {
		t.Error("abstraction certificate does not re-verify")
	}
	if bound.Sign() <= 0 {
		t.Errorf("abstraction bound %v, want > 0", bound)
	}
}

func TestHedgedFacade(t *testing.T) {
	g := Figure3(4)
	tp, rep, err := ComputeThroughputHedged(context.Background(), g)
	if err != nil {
		t.Fatalf("ComputeThroughputHedged: %v", err)
	}
	if tp.Unbounded || !rep.Answered {
		t.Fatalf("hedged result: %+v, report:\n%s", tp, rep)
	}
	cert := rep.Certificate
	if cert == nil {
		t.Fatal("winner has no certificate")
	}
	if err := CheckCertificate(context.Background(), g, cert); err != nil {
		t.Errorf("winner's certificate does not re-verify: %v", err)
	}
}

// CertifyReduction analyses the fixpoint-reduced graph and lifts the
// answer back: it equals every certified engine's answer on the
// original graph, and the lifted certificate chain re-checks against it.
func TestCertifyReductionMatchesHedged(t *testing.T) {
	g := NewGraph("reducible")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 7)
	g.MustAddChannel(a, b, 2, 2, 0) // fusible: same rate, no tokens
	g.MustAddChannel(b, c, 2, 4, 0) // gcd 2
	g.MustAddChannel(c, a, 2, 1, 2)
	g.MustAddChannel(c, a, 2, 1, 8) // redundant: dominated by the 2-token twin
	g.MustAddChannel(c, d, 1, 1, 0) // dead tail
	ctx := WithBudget(context.Background(), UnlimitedBudget())
	tp, red, cert, err := CertifyReduction(ctx, g, ReduceOptions{})
	if err != nil {
		t.Fatalf("CertifyReduction: %v", err)
	}
	for _, m := range []Method{MethodMatrix, MethodStateSpace, MethodHSDF} {
		direct, _, err := ComputeThroughputCertified(ctx, g, m)
		if err != nil {
			t.Fatalf("direct %v: %v", m, err)
		}
		if tp.Unbounded || !tp.Period.Equal(direct.Period) {
			t.Fatalf("lifted answer %v (unbounded=%v), want the %v engine's %v", tp.Period, tp.Unbounded, m, direct.Period)
		}
	}
	if len(red.Trace()) == 0 {
		t.Fatal("no reduction trace")
	}
	if cert == nil {
		t.Fatal("no lifted certificate")
	}
	if err := cert.Check(ctx, g); err != nil {
		t.Fatalf("lifted certificate rejected on re-check: %v", err)
	}
}
