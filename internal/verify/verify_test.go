package verify

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/maxplus"
	"repro/internal/mcm"
	"repro/internal/rat"
	"repro/internal/schedule"
	"repro/internal/sdf"
	"repro/internal/sim"
	"repro/internal/transform"
)

func ctxT(t *testing.T) context.Context {
	t.Helper()
	return context.Background()
}

// matrixCertFor builds the certified symbolic matrix of g.
func matrixCertFor(t *testing.T, g *sdf.Graph) *MatrixCert {
	t.Helper()
	r, err := core.SymbolicIteration(g)
	if err != nil {
		t.Fatalf("symbolic iteration: %v", err)
	}
	return &MatrixCert{Matrix: r.Matrix, Schedule: r.Schedule}
}

func repetitionOf(t *testing.T, g *sdf.Graph) []int64 {
	t.Helper()
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatalf("repetition vector: %v", err)
	}
	return q
}

// --- repetition certificate ---

func TestRepetitionCertAcceptsAndRejects(t *testing.T) {
	g := gen.Figure3(4) // multirate: q = (2, 1)
	q := repetitionOf(t, g)
	cert := &RepetitionCert{Q: q}
	if err := cert.Check(ctxT(t), g); err != nil {
		t.Fatalf("valid repetition certificate rejected: %v", err)
	}
	// Doubling every entry still balances but is not minimal.
	double := make([]int64, len(q))
	for i, v := range q {
		double[i] = 2 * v
	}
	if err := (&RepetitionCert{Q: double}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("non-minimal vector accepted: %v", err)
	}
	// Breaking one entry breaks a balance equation.
	bad := append([]int64(nil), q...)
	bad[0]++
	if err := (&RepetitionCert{Q: bad}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("unbalanced vector accepted: %v", err)
	}
	if err := (&RepetitionCert{Q: q[:1]}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("short vector accepted: %v", err)
	}
}

func TestRepetitionCertPerComponentMinimality(t *testing.T) {
	// Two disconnected self-loop actors: q = (1, 1); the vector (1, 2)
	// balances each component but the second is not minimal.
	g := sdf.NewGraph("two_components")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, a, 1, 1, 1)
	g.MustAddChannel(b, b, 1, 1, 1)
	if err := (&RepetitionCert{Q: []int64{1, 1}}).Check(ctxT(t), g); err != nil {
		t.Fatalf("minimal vector rejected: %v", err)
	}
	if err := (&RepetitionCert{Q: []int64{1, 2}}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("per-component non-minimal vector accepted: %v", err)
	}
}

// --- schedule certificate ---

func TestScheduleCertAcceptsAndRejects(t *testing.T) {
	g := gen.Figure3(4)
	sched, err := schedule.Sequential(g)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if err := (&ScheduleCert{Schedule: sched}).Check(ctxT(t), g); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Dropping the last firing leaves the marking off its initial state.
	if err := (&ScheduleCert{Schedule: sched[:len(sched)-1]}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("truncated schedule accepted: %v", err)
	}
	// Doubling the schedule restores the marking but is not minimal.
	if err := (&ScheduleCert{Schedule: append(append([]sdf.ActorID(nil), sched...), sched...)}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("doubled schedule accepted: %v", err)
	}
	// An unknown actor is rejected.
	if err := (&ScheduleCert{Schedule: []sdf.ActorID{99}}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("schedule with unknown actor accepted: %v", err)
	}
}

func TestScheduleCertRejectsUnderflow(t *testing.T) {
	// L consumes from R's channel; firing R's consumer first underflows.
	g := gen.Figure3(4)
	l, _ := g.ActorByName("L")
	r, _ := g.ActorByName("R")
	// R needs 2 tokens from L's channel which start empty.
	if err := (&ScheduleCert{Schedule: []sdf.ActorID{r, l, l}}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("underflowing schedule accepted: %v", err)
	}
}

// --- matrix certificate ---

func TestMatrixCertAcceptsGenuineMatrix(t *testing.T) {
	for _, g := range []*sdf.Graph{gen.Figure2(), gen.Figure3(4), gen.Figure3(7)} {
		cert := matrixCertFor(t, g)
		if !cert.ExhaustiveFor(g) {
			t.Fatalf("%s: expected exhaustive binding for this size", g.Name())
		}
		if err := cert.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: genuine matrix rejected: %v", g.Name(), err)
		}
	}
}

func TestMatrixCertRejectsCorruption(t *testing.T) {
	g := gen.Figure3(4)
	cert := matrixCertFor(t, g)

	// Bump one finite entry: caught by row maxima or column recovery.
	tampered := cert.Matrix.Clone()
	found := false
	for i := 0; i < tampered.Size() && !found; i++ {
		for j := 0; j < tampered.Size() && !found; j++ {
			if !tampered.At(i, j).IsNegInf() {
				tampered.Set(i, j, tampered.At(i, j).Add(maxplus.FromInt(1)))
				found = true
			}
		}
	}
	if !found {
		t.Fatal("matrix has no finite entry to tamper with")
	}
	bad := &MatrixCert{Matrix: tampered, Schedule: cert.Schedule}
	if err := bad.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("tampered entry accepted: %v", err)
	}

	// Erase a dependency (finite -> −∞): caught by column recovery.
	erased := cert.Matrix.Clone()
	outer := -1
	inner := -1
	for i := 0; i < erased.Size() && outer < 0; i++ {
		finite := 0
		for j := 0; j < erased.Size(); j++ {
			if !erased.At(i, j).IsNegInf() {
				finite++
				inner = j
			}
		}
		if finite > 1 {
			outer = i
		}
	}
	if outer >= 0 {
		erased.Set(outer, inner, maxplus.NegInf)
		bad := &MatrixCert{Matrix: erased, Schedule: cert.Schedule}
		if err := bad.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
			t.Errorf("erased dependency accepted: %v", err)
		}
	}

	// Wrong dimension.
	if err := (&MatrixCert{Matrix: maxplus.NewMatrix(1), Schedule: cert.Schedule}).Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("wrong-dimension matrix accepted: %v", err)
	}
}

// --- throughput certificate, matrix anchor ---

func TestMatrixThroughputCertRoundTrip(t *testing.T) {
	for _, g := range []*sdf.Graph{gen.Figure2(), gen.Figure3(4)} {
		mc := matrixCertFor(t, g)
		lam, cyc, hasCycle, err := mc.Matrix.CriticalCycle()
		if err != nil {
			t.Fatalf("%s: eigenvalue: %v", g.Name(), err)
		}
		if !hasCycle {
			t.Fatalf("%s: unexpected unbounded throughput", g.Name())
		}
		cert, err := NewMatrixThroughputCert(ctxT(t), mc.Matrix, mc.Schedule, repetitionOf(t, g), false, lam, cyc)
		if err != nil {
			t.Fatalf("%s: certificate construction: %v", g.Name(), err)
		}
		if err := cert.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: genuine throughput certificate rejected: %v", g.Name(), err)
		}
	}
}

func TestMatrixThroughputCertConstructionRejectsWrongPeriod(t *testing.T) {
	g := gen.Figure2()
	mc := matrixCertFor(t, g)
	lam, cyc, _, err := mc.Matrix.CriticalCycle()
	if err != nil {
		t.Fatal(err)
	}
	q := repetitionOf(t, g)
	tooBig, _ := lam.Add(rat.One())
	if _, err := NewMatrixThroughputCert(ctxT(t), mc.Matrix, mc.Schedule, q, false, tooBig, cyc); !errors.Is(err, ErrInvalid) {
		t.Errorf("period above the true value extracted a witness: %v", err)
	}
	tooSmall, _ := lam.Sub(rat.One())
	if _, err := NewMatrixThroughputCert(ctxT(t), mc.Matrix, mc.Schedule, q, false, tooSmall, cyc); !errors.Is(err, ErrInvalid) {
		t.Errorf("period below the true value extracted a witness: %v", err)
	}
}

func TestThroughputCertRejectsTamperedWitnesses(t *testing.T) {
	g := gen.Figure2()
	mc := matrixCertFor(t, g)
	lam, cyc, _, err := mc.Matrix.CriticalCycle()
	if err != nil {
		t.Fatal(err)
	}
	q := repetitionOf(t, g)
	cert, err := NewMatrixThroughputCert(ctxT(t), mc.Matrix, mc.Schedule, q, false, lam, cyc)
	if err != nil {
		t.Fatal(err)
	}

	// A corrupted claimed period no longer matches the witnesses.
	tampered := *cert
	tampered.Period = rat.MustNew(lam.Num()+lam.Den(), lam.Den())
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("corrupted period accepted: %v", err)
	}

	// A corrupted potential breaks feasibility.
	tampered = *cert
	tampered.Potentials = append([]int64(nil), cert.Potentials...)
	tampered.Potentials[cert.Critical[0]] -= 1 << 20
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("corrupted potentials accepted: %v", err)
	}

	// An empty critical set is no lower bound.
	tampered = *cert
	tampered.Critical = nil
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing cycle accepted: %v", err)
	}

	// Carrying both anchors is ill-formed.
	tampered = *cert
	tampered.HSDF = gen.Figure2()
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("double-anchored certificate accepted: %v", err)
	}
}

func TestThroughputCertUnbounded(t *testing.T) {
	// A source feeding a sink through a buffered channel has no
	// dependency cycle: the precedence graph over the single token is
	// empty and the steady state is unconstrained.
	g := sdf.NewGraph("acyclic")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 2)
	g.MustAddChannel(a, b, 1, 1, 1)
	mc := matrixCertFor(t, g)
	cert, err := NewMatrixThroughputCert(ctxT(t), mc.Matrix, mc.Schedule, repetitionOf(t, g), true, rat.Rat{}, nil)
	if err != nil {
		t.Fatalf("unbounded certificate construction: %v", err)
	}
	if err := cert.Check(ctxT(t), g); err != nil {
		t.Errorf("genuine unbounded certificate rejected: %v", err)
	}
	// Claiming unbounded on a cyclic graph must fail at construction.
	g2 := gen.Figure2()
	mc2 := matrixCertFor(t, g2)
	if _, err := NewMatrixThroughputCert(ctxT(t), mc2.Matrix, mc2.Schedule, repetitionOf(t, g2), true, rat.Rat{}, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("unbounded claim on cyclic graph extracted a witness: %v", err)
	}
}

// --- throughput certificate, HSDF anchor ---

func TestHSDFThroughputCertRoundTrip(t *testing.T) {
	for _, g := range []*sdf.Graph{gen.Figure2(), gen.Figure3(4)} {
		h, _, err := transform.Traditional(g)
		if err != nil {
			t.Fatalf("%s: traditional conversion: %v", g.Name(), err)
		}
		res, err := mcm.MaxCycleRatio(h)
		if err != nil {
			t.Fatalf("%s: mcm: %v", g.Name(), err)
		}
		if !res.HasCycle {
			t.Fatalf("%s: unexpected acyclic HSDF graph", g.Name())
		}
		cert, err := NewHSDFThroughputCert(ctxT(t), g, h, repetitionOf(t, g), false, res.CycleMean)
		if err != nil {
			t.Fatalf("%s: certificate construction: %v", g.Name(), err)
		}
		if err := cert.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: genuine hsdf certificate rejected: %v", g.Name(), err)
		}
	}
}

func TestHSDFThroughputCertPinsStructure(t *testing.T) {
	g := gen.Figure3(4)
	h, _, err := transform.Traditional(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcm.MaxCycleRatio(h)
	if err != nil {
		t.Fatal(err)
	}
	q := repetitionOf(t, g)
	// A multirate anchor is rejected.
	if _, err := NewHSDFThroughputCert(ctxT(t), g, g, q, false, res.CycleMean); !errors.Is(err, ErrInvalid) {
		t.Errorf("multirate anchor accepted: %v", err)
	}
	// A node count different from Σq is rejected.
	wrong := h.Clone()
	wrong.MustAddActor("extra", 0)
	if _, err := NewHSDFThroughputCert(ctxT(t), g, wrong, q, false, res.CycleMean); !errors.Is(err, ErrInvalid) {
		t.Errorf("wrong-size anchor accepted: %v", err)
	}
}

// TestHSDFAnchorTrustGap documents the verification gap of the HSDF
// anchor: edge delays of the anchor are trusted, so a tampered
// conversion certifies a *different* period against the same graph.
// Catching this is the job of cross-engine disagreement detection, not
// of a single certificate.
func TestHSDFAnchorTrustGap(t *testing.T) {
	g := gen.Figure2()
	h, _, err := transform.Traditional(g)
	if err != nil {
		t.Fatal(err)
	}
	genuine, err := mcm.MaxCycleRatio(h)
	if err != nil {
		t.Fatal(err)
	}
	// Add a delay token on every channel: every cycle ratio drops.
	tampered := h.Clone()
	for i := range tampered.Channels() {
		id := sdf.ChannelID(i)
		if err := tampered.SetInitial(id, tampered.Channel(id).Initial+1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := mcm.MaxCycleRatio(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleMean.Equal(genuine.CycleMean) {
		t.Fatal("tampering did not change the cycle mean; test graph unsuitable")
	}
	cert, err := NewHSDFThroughputCert(ctxT(t), g, tampered, repetitionOf(t, g), false, res.CycleMean)
	if err != nil {
		t.Fatalf("tampered anchor failed construction: %v", err)
	}
	if err := cert.Check(ctxT(t), g); err != nil {
		t.Fatalf("expected the documented trust gap (tampered delays verify): %v", err)
	}
}

// --- trace certificate ---

func TestTraceCertAcceptsAndRejects(t *testing.T) {
	g := gen.Figure3(4)
	const iterations = 3
	tr, err := sim.Run(g, iterations)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	firings := make([]TraceFiring, len(tr.Firings))
	for i, f := range tr.Firings {
		firings[i] = TraceFiring{Actor: f.Actor, Start: f.Start, End: f.End}
	}
	cert := &TraceCert{Iterations: iterations, Q: repetitionOf(t, g), Firings: firings}
	if err := cert.Check(ctxT(t), g); err != nil {
		t.Fatalf("genuine trace rejected: %v", err)
	}
	// Pulling one firing earlier consumes a token before it exists.
	tampered := *cert
	tampered.Firings = append([]TraceFiring(nil), firings...)
	last := len(tampered.Firings) - 1
	exec := g.Actor(tampered.Firings[last].Actor).Exec
	tampered.Firings[last] = TraceFiring{Actor: tampered.Firings[last].Actor, Start: 0, End: exec}
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("time-shifted trace accepted: %v", err)
	}
	// A wrong duration is rejected.
	tampered.Firings = append([]TraceFiring(nil), firings...)
	tampered.Firings[0].End++
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("wrong-duration trace accepted: %v", err)
	}
	// A missing firing breaks the count equation.
	tampered.Firings = firings[:len(firings)-1]
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("truncated trace accepted: %v", err)
	}
}

// --- abstraction certificate ---

func figure2Abstraction() *core.Abstraction {
	return &core.Abstraction{
		Alpha: []string{"A", "A", "A", "B", "B"},
		Index: []int{0, 1, 2, 0, 1},
	}
}

func TestAbstractionCertRoundTrip(t *testing.T) {
	g := gen.Figure2()
	ab := figure2Abstraction()
	abstract, res, err := core.Abstract(g, ab)
	if err != nil {
		t.Fatal(err)
	}
	mc := matrixCertFor(t, abstract)
	lam, cyc, hasCycle, err := mc.Matrix.CriticalCycle()
	if err != nil || !hasCycle {
		t.Fatalf("abstract eigenvalue: %v (cycle=%v)", err, hasCycle)
	}
	inner, err := NewMatrixThroughputCert(ctxT(t), mc.Matrix, mc.Schedule, repetitionOf(t, abstract), false, lam, cyc)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := core.ThroughputBound(lam, res.N)
	if err != nil {
		t.Fatal(err)
	}
	cert := &AbstractionCert{
		Alpha: ab.Alpha, Index: ab.Index, N: res.N,
		AbstractPeriod: lam, Bound: bound, Inner: inner,
	}
	if err := cert.Check(ctxT(t), g); err != nil {
		t.Fatalf("genuine abstraction certificate rejected: %v", err)
	}
	// A corrupted bound is rejected.
	tampered := *cert
	tampered.Bound = rat.MustNew(1, 4)
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("corrupted bound accepted: %v", err)
	}
	// A mismatched inner period is rejected.
	tampered = *cert
	tampered.AbstractPeriod = rat.MustNew(lam.Num()+1, lam.Den())
	if err := tampered.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("mismatched abstract period accepted: %v", err)
	}
}

// --- engine cross-checks: certificates agree across engines ---

func TestCertifiedPeriodsAgreeAcrossAnchors(t *testing.T) {
	for _, g := range []*sdf.Graph{gen.Figure2(), gen.Figure3(4), gen.Figure3(7)} {
		q := repetitionOf(t, g)
		mc := matrixCertFor(t, g)
		lam, cyc, _, err := mc.Matrix.CriticalCycle()
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := transform.Traditional(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mcm.MaxCycleRatio(h)
		if err != nil {
			t.Fatal(err)
		}
		// The iteration period of the HSDF view is the cycle mean; the
		// matrix eigenvalue is the per-iteration growth. They must agree.
		if !res.CycleMean.Equal(lam) {
			t.Fatalf("%s: hsdf cycle mean %v != matrix eigenvalue %v", g.Name(), res.CycleMean, lam)
		}
		a, err := NewMatrixThroughputCert(ctxT(t), mc.Matrix, mc.Schedule, q, false, lam, cyc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewHSDFThroughputCert(ctxT(t), g, h, q, false, res.CycleMean)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: matrix-anchored certificate rejected: %v", g.Name(), err)
		}
		if err := b.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: hsdf-anchored certificate rejected: %v", g.Name(), err)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindRepetition:  "repetition",
		KindSchedule:    "schedule",
		KindMatrix:      "matrix",
		KindThroughput:  "throughput",
		KindTrace:       "trace",
		KindAbstraction: "abstraction",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
