package verify

import (
	"context"
	"errors"
	"runtime"
	"slices"
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

// TestReplayMemoryFollowsClaim pins that only a replay allocates the
// ring buffer of one slot per initial token: on a graph of 10^8 tokens
// the schedule certificate's count walk and a throughput certificate
// whose witness is too short are answered without it.
func TestReplayMemoryFollowsClaim(t *testing.T) {
	g := sdf.NewGraph("token-heavy")
	a := g.MustAddActor("A", 3)
	b := g.MustAddActor("B", 5)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 2, 100_000_000)
	sched := []sdf.ActorID{a, b, b}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := (&ScheduleCert{Schedule: sched}).Check(ctxT(t), g); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	short := &ThroughputCert{Period: rat.FromInt(10), Q: []int64{1, 2}, Schedule: sched, Potentials: []int64{0}, Critical: []int{0}}
	if err := short.Check(ctxT(t), g); !errors.Is(err, ErrInvalid) {
		t.Errorf("one potential for 10^8 tokens accepted: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("checks that need no replay allocated %d bytes", grew)
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

// --- throughput certificate, HSDF engine ---

// hsdfCertFor runs the HSDF engine's pipeline on g — Howard's iteration
// on the traditional conversion, one schedule of g — and certifies the
// answer.
func hsdfCertFor(t *testing.T, g *sdf.Graph) (*ThroughputCert, mcm.Result, error) {
	t.Helper()
	conv, _, err := transform.Convert(context.Background(), g)
	if err != nil {
		t.Fatalf("%s: traditional conversion: %v", g.Name(), err)
	}
	res, err := mcm.MaxCycleRatio(context.Background(), conv.HSDF)
	if err != nil {
		t.Fatalf("%s: mcm: %v", g.Name(), err)
	}
	sched, err := schedule.Sequential(g)
	if err != nil {
		t.Fatalf("%s: schedule: %v", g.Name(), err)
	}
	cert, err := NewHSDFThroughputCert(ctxT(t), g, conv, sched, repetitionOf(t, g), !res.HasCycle, res.CycleMean, res.Critical)
	return cert, res, err
}

func TestHSDFThroughputCertRoundTrip(t *testing.T) {
	for _, g := range []*sdf.Graph{gen.Figure2(), gen.Figure3(4)} {
		cert, res, err := hsdfCertFor(t, g)
		if err != nil {
			t.Fatalf("%s: certificate construction: %v", g.Name(), err)
		}
		if !res.HasCycle || cert.Unbounded || !cert.Period.Equal(res.CycleMean) || cert.Schedule == nil {
			t.Fatalf("%s: certificate %v does not claim Howard's %v", g.Name(), cert, res.CycleMean)
		}
		if err := cert.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: genuine hsdf certificate rejected: %v", g.Name(), err)
		}
	}
}

func TestHSDFThroughputCertPinsStructure(t *testing.T) {
	g := gen.Figure3(4)
	conv, _, err := transform.Convert(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	h := conv.HSDF
	res, err := mcm.MaxCycleRatio(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.Sequential(g)
	if err != nil {
		t.Fatal(err)
	}
	q := repetitionOf(t, g)
	reject := func(what string, c *transform.Conversion, critical []sdf.ActorID) {
		t.Helper()
		if _, err := NewHSDFThroughputCert(ctxT(t), g, c, sched, q, false, res.CycleMean, critical); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s accepted: %v", what, err)
		}
	}
	reject("multirate conversion", &transform.Conversion{HSDF: g, Copies: conv.Copies, Origins: conv.Origins}, res.Critical)
	wrong := h.Clone()
	wrong.MustAddActor("extra", 0)
	reject("node count different from Σq", &transform.Conversion{HSDF: wrong, Copies: conv.Copies, Origins: conv.Origins}, res.Critical)
	reject("copy count different from q", &transform.Conversion{HSDF: h, Copies: conv.Copies[1:], Origins: conv.Origins}, res.Critical)
	copies := slices.Clone(conv.Copies)
	copies[0] = []sdf.ActorID{sdf.ActorID(h.NumActors())}
	reject("copy node outside the conversion", &transform.Conversion{HSDF: h, Copies: copies, Origins: conv.Origins}, res.Critical)
	reject("origins missing", &transform.Conversion{HSDF: h, Copies: conv.Copies}, res.Critical)
	origins := slices.Clone(conv.Origins)
	for i := range origins {
		origins[i].Channel = sdf.ChannelID(g.NumChannels())
	}
	reject("origin on an unknown channel", &transform.Conversion{HSDF: h, Copies: conv.Copies, Origins: origins}, res.Critical)
	reject("critical node outside the conversion", conv, []sdf.ActorID{sdf.ActorID(h.NumActors())})
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
		b, res, err := hsdfCertFor(t, g)
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
		if err := a.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: matrix-anchored certificate rejected: %v", g.Name(), err)
		}
		if err := b.Check(ctxT(t), g); err != nil {
			t.Errorf("%s: hsdf engine's certificate rejected: %v", g.Name(), err)
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
