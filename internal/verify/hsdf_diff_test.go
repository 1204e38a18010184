package verify_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/guard"
	"repro/internal/mcm"
	"repro/internal/schedule"
	"repro/internal/sdf"
	"repro/internal/testutil"
	"repro/internal/transform"
	"repro/internal/verify"
)

// hsdfDiffGraphs is the input set of the HSDF engine's differential
// tests: seeded random multirate and regular graphs, the five reducible
// families over a range of sizes, every Table-1 graph, the N = 2001
// graph, seeded acyclic graphs, and token-heavy graphs with more initial
// tokens than the matrix engine's default budget admits.
func hsdfDiffGraphs(t *testing.T) []*sdf.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	var out []*sdf.Graph
	for i := 0; i < 1200; i++ {
		g, err := gen.RandomGraph(rng, gen.RandomOptions{
			Actors: 1 + rng.Intn(8), MaxRep: 1 + rng.Int63n(6), MaxExec: 9,
			Chords: rng.Intn(5), SelfLoop: rng.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.SetName(fmt.Sprintf("random-%d", i))
		out = append(out, g)
	}
	for i := 0; i < 600; i++ {
		g, err := gen.RandomRegularMultirate(rng, gen.RegularOptions{
			Groups: 1 + rng.Intn(3), Copies: 2 + rng.Intn(4), Links: rng.Intn(5), MaxExec: 7,
		}, 1+rng.Int63n(4))
		if err != nil {
			t.Fatal(err)
		}
		g.SetName(fmt.Sprintf("regular-%d", i))
		out = append(out, g)
	}
	for i := 0; i < 20; i++ {
		out = append(out,
			benchmarks.FusibleRing(2+rng.Intn(40)),
			benchmarks.DeadPeriphery(1+rng.Intn(4)),
			benchmarks.GCDTokenCycle(2+rng.Intn(8), 1+rng.Intn(5), 1+rng.Intn(5)),
			benchmarks.WideRedundant(2+rng.Intn(20)),
			benchmarks.RingWithDeadTail(2+rng.Intn(30), 1+rng.Intn(4)),
		)
	}
	for _, c := range benchmarks.All() {
		out = append(out, c.Graph())
	}
	out = append(out, testutil.N2001Graph())
	out = append(out, verify.AcyclicGraphs(t, rng, 200)...)
	for i := 0; i < 12; i++ {
		out = append(out, tokenHeavyGraph(rng, i))
	}
	return out
}

// tokenHeavyGraph is a seeded variant of the served budget-fallback
// graph: a 2:1 pair whose feedback channel holds more initial tokens
// than guard.Default().MaxTokens, so the matrix engine refuses it.
func tokenHeavyGraph(rng *rand.Rand, i int) *sdf.Graph {
	g := sdf.NewGraph(fmt.Sprintf("token-heavy-%d", i))
	a := g.MustAddActor("A", 1+rng.Int63n(9))
	b := g.MustAddActor("B", 1+rng.Int63n(9))
	g.MustAddChannel(a, b, 2, 1, rng.Intn(3))
	g.MustAddChannel(b, a, 1, 2, int(guard.Default().MaxTokens)+1+rng.Intn(1500))
	if i%2 == 0 {
		g.MustAddChannel(b, b, 1, 1, 1)
	}
	return g
}

// hsdfAnswer is the HSDF engine's answer computed the classical way,
// outside the certified path: Howard's cycle mean of the traditional
// conversion.
func hsdfAnswer(t *testing.T, g *sdf.Graph) (*transform.Conversion, mcm.Result) {
	t.Helper()
	conv, _, err := transform.Convert(context.Background(), g)
	if err != nil {
		t.Fatalf("%s: traditional conversion: %v", g.Name(), err)
	}
	res, err := mcm.MaxCycleRatio(context.Background(), conv.HSDF)
	if err != nil {
		t.Fatalf("%s: mcm: %v", g.Name(), err)
	}
	return conv, res
}

// TestHSDFCertMatchesEngines pins the HSDF engine's certificate: on
// every graph of the differential set its certified answer equals the
// classical conversion's cycle mean and, within the matrix engine's
// token budget, the matrix engine's certified answer; its certificate
// carries a schedule and passes Check.
func TestHSDFCertMatchesEngines(t *testing.T) {
	ctx := context.Background()
	graphs := hsdfDiffGraphs(t)
	bounded, unbounded, beyondMatrix := 0, 0, 0
	for _, g := range graphs {
		_, want := hsdfAnswer(t, g)
		tp, cert, err := analysis.ComputeThroughputCertified(ctx, g, analysis.HSDF)
		if err != nil {
			t.Fatalf("%s: certified hsdf: %v", g.Name(), err)
		}
		if tp.Unbounded == want.HasCycle || (want.HasCycle && !tp.Period.Equal(want.CycleMean)) {
			t.Fatalf("%s: certified hsdf answer %v (unbounded %v), the conversion's cycle mean is %v (cycle %v)",
				g.Name(), tp.Period, tp.Unbounded, want.CycleMean, want.HasCycle)
		}
		if cert.Schedule == nil {
			t.Fatalf("%s: hsdf certificate carries no schedule", g.Name())
		}
		if err := cert.Check(ctx, g); err != nil {
			t.Fatalf("%s: hsdf certificate rejected: %v", g.Name(), err)
		}
		if tp.Unbounded {
			unbounded++
		} else {
			bounded++
		}
		mtp, _, err := analysis.ComputeThroughputCertified(ctx, g, analysis.Matrix)
		if int64(g.TotalInitialTokens()) > guard.Default().MaxTokens && errors.Is(err, guard.ErrBudgetExceeded) {
			beyondMatrix++
			continue
		}
		if err != nil {
			t.Fatalf("%s: certified matrix: %v", g.Name(), err)
		}
		if mtp.Unbounded != tp.Unbounded || (!tp.Unbounded && !mtp.Period.Equal(tp.Period)) {
			t.Fatalf("%s: hsdf engine proves %v (unbounded %v), matrix engine %v (unbounded %v)",
				g.Name(), tp.Period, tp.Unbounded, mtp.Period, mtp.Unbounded)
		}
	}
	t.Logf("%d graphs: %d bounded, %d unbounded; %d beyond the matrix engine's token budget", len(graphs), bounded, unbounded, beyondMatrix)
	if len(graphs) < 2000 || unbounded < 100 || beyondMatrix < 10 {
		t.Errorf("%d graphs, %d unbounded, %d beyond the token budget: the set lost a kind", len(graphs), unbounded, beyondMatrix)
	}
}

// TestHSDFAnchorTrustGap pins the closed gap: a conversion with one
// extra delay on every channel proves a smaller cycle mean, and its
// certificate is rejected — by construction or by Check — on every
// graph of the differential set where the extra delays move the mean.
// A certificate that trusted the conversion's delays accepted it.
func TestHSDFAnchorTrustGap(t *testing.T) {
	ctx := context.Background()
	moved, byConstruction := 0, 0
	for _, g := range hsdfDiffGraphs(t) {
		conv, genuine := hsdfAnswer(t, g)
		tampered := conv.HSDF.Clone()
		for i := range tampered.Channels() {
			id := sdf.ChannelID(i)
			if err := tampered.SetInitial(id, tampered.Channel(id).Initial+1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := mcm.MaxCycleRatio(ctx, tampered)
		if err != nil {
			t.Fatalf("%s: mcm on the tampered conversion: %v", g.Name(), err)
		}
		if !genuine.HasCycle || res.CycleMean.Equal(genuine.CycleMean) {
			continue
		}
		moved++
		sched, err := schedule.Sequential(g)
		if err != nil {
			t.Fatal(err)
		}
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatal(err)
		}
		forged := &transform.Conversion{HSDF: tampered, Copies: conv.Copies, Origins: conv.Origins}
		cert, err := verify.NewHSDFThroughputCert(ctx, g, forged, sched, q, false, res.CycleMean, res.Critical)
		if err == nil {
			err = cert.Check(ctx, g)
		} else {
			byConstruction++
		}
		if !errors.Is(err, verify.ErrInvalid) {
			t.Fatalf("%s: tampered conversion certifies period %v (true %v): %v", g.Name(), res.CycleMean, genuine.CycleMean, err)
		}
	}
	t.Logf("the extra delays moved the cycle mean on %d graphs: %d rejected by construction, %d by Check", moved, byConstruction, moved-byConstruction)
	if moved < 1000 {
		t.Errorf("the extra delays moved the cycle mean on only %d graphs", moved)
	}
}
