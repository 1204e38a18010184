package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/csdf"
	"repro/internal/passes"
	"repro/internal/schedule"
	"repro/internal/sdf"
)

// inconsistentGraph has two parallel channels whose rates conflict.
func inconsistentGraph() *sdf.Graph {
	g := sdf.NewGraph("inconsistent")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(a, b, 2, 1, 0)
	return g
}

// deadlockedGraph is a two-actor zero-token cycle.
func deadlockedGraph() *sdf.Graph {
	g := sdf.NewGraph("deadlocked")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, a, 1, 1, 0)
	return g
}

// healthyGraph is consistent, live and connected.
func healthyGraph() *sdf.Graph {
	g := sdf.NewGraph("healthy")
	a := g.MustAddActor("A", 2)
	b := g.MustAddActor("B", 3)
	g.MustAddChannel(a, b, 2, 1, 0)
	g.MustAddChannel(b, a, 1, 2, 4)
	return g
}

func analyze(t *testing.T, g *sdf.Graph, passes ...string) *Report {
	t.Helper()
	rep, err := Analyze(g, Options{Passes: passes})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestHealthyGraphIsClean(t *testing.T) {
	rep := analyze(t, healthyGraph())
	if rep.HasErrors() || rep.Count(Warning) != 0 {
		t.Errorf("healthy graph not clean:\n%s", rep)
	}
}

func TestConsistencyPass(t *testing.T) {
	rep := analyze(t, inconsistentGraph(), "consistency")
	if !rep.HasErrors() {
		t.Fatalf("inconsistent graph produced no errors:\n%s", rep)
	}
	// The rank-based summary and at least one channel witness.
	diags := rep.ByPass("consistency")
	var haveSummary, haveWitness bool
	for _, d := range diags {
		if strings.Contains(d.Msg, "rank") {
			haveSummary = true
		}
		if d.Channel != "" {
			haveWitness = true
		}
	}
	if !haveSummary || !haveWitness {
		t.Errorf("want rank summary and channel witness, got:\n%s", rep)
	}
	// The healthy graph passes the same pass silently.
	if rep := analyze(t, healthyGraph(), "consistency"); len(rep.Diagnostics) != 0 {
		t.Errorf("consistency flagged a consistent graph:\n%s", rep)
	}
}

// TestTopologyRankMatchesSolver cross-validates the nullspace decision
// against the repetition-vector solver on a mixed bag of graphs.
func TestTopologyRankMatchesSolver(t *testing.T) {
	graphs := []*sdf.Graph{healthyGraph(), inconsistentGraph(), deadlockedGraph()}
	for _, g := range graphs {
		rank, ok := topologyRank(g)
		if !ok {
			t.Fatalf("%s: rank computation overflowed", g.Name())
		}
		comps := len(passes.NewFacts(g).Components())
		_, err := g.RepetitionVector()
		if consistent := err == nil; consistent != (rank == g.NumActors()-comps) {
			t.Errorf("%s: rank %d (n=%d, c=%d) disagrees with solver (consistent=%v)",
				g.Name(), rank, g.NumActors(), comps, consistent)
		}
	}
}

func TestDeadlockPass(t *testing.T) {
	rep := analyze(t, deadlockedGraph(), "deadlock")
	if !rep.HasErrors() {
		t.Fatalf("deadlocked graph produced no errors:\n%s", rep)
	}
	if !strings.Contains(rep.Diagnostics[0].Msg, "token-insufficient") {
		t.Errorf("unexpected deadlock message:\n%s", rep)
	}
	// Blocked self-loop.
	g := sdf.NewGraph("selfblock")
	a := g.MustAddActor("A", 1)
	g.MustAddChannel(a, a, 2, 2, 1)
	rep = analyze(t, g, "deadlock")
	if !rep.HasErrors() || rep.Diagnostics[0].Actor != "A" {
		t.Errorf("blocked self-loop not reported:\n%s", rep)
	}
	// A live graph is clean.
	if rep := analyze(t, healthyGraph(), "deadlock"); len(rep.Diagnostics) != 0 {
		t.Errorf("deadlock flagged a live graph:\n%s", rep)
	}
}

// TestDeadlockPrecheckSound verifies the structural check never flags a
// graph the exact schedule construction can serve: every flagged graph
// must also fail schedule.Sequential.
func TestDeadlockPrecheckSound(t *testing.T) {
	cases := []*sdf.Graph{healthyGraph(), deadlockedGraph()}
	// Three-actor cycle with tokens on one channel only: live.
	g := sdf.NewGraph("ring")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, c, 1, 1, 0)
	g.MustAddChannel(c, a, 1, 1, 1)
	cases = append(cases, g)
	for _, g := range cases {
		rep := analyze(t, g, "deadlock")
		if !rep.HasErrors() {
			continue
		}
		if _, err := schedule.Sequential(g); err == nil {
			t.Errorf("%s: structural deadlock reported but a schedule exists:\n%s", g.Name(), rep)
		}
	}
}

func TestOverflowPass(t *testing.T) {
	// Rate ratios compound beyond int64 while *solving* the balance
	// equations: a chain of 1000:1 channels multiplies q by 1000 per hop.
	g := sdf.NewGraph("solveblow")
	prev := g.MustAddActor("A0", 1)
	for i := 1; i <= 8; i++ {
		next := g.MustAddActor(fmt.Sprintf("A%d", i), 1)
		g.MustAddChannel(prev, next, 1000, 1, 0)
		prev = next
	}
	rep := analyze(t, g, "overflow")
	if !rep.HasErrors() {
		t.Fatalf("10^24 repetition count produced no overflow error:\n%s", rep)
	}
	// The consistency pass stays silent on this graph: the failure is
	// numeric, not structural.
	if rep := analyze(t, g, "consistency"); len(rep.Diagnostics) != 0 {
		t.Errorf("consistency misattributed a solver overflow:\n%s", rep)
	}

	// q representable but Σq overflows int64.
	g2 := sdf.NewGraph("sumblow")
	a := g2.MustAddActor("A", 1)
	prev = a
	for i := 0; i < 4; i++ {
		next := g2.MustAddActor(fmt.Sprintf("B%d", i), 1)
		g2.MustAddChannel(a, next, 1<<62, 1, 0)
		prev = next
	}
	_ = prev
	rep = analyze(t, g2, "overflow")
	if !rep.HasErrors() {
		t.Fatalf("Σq = 1 + 4·2^62 produced no overflow error:\n%s", rep)
	}

	// A large-but-representable iteration gets a warning, not an error.
	g3 := sdf.NewGraph("large")
	p := g3.MustAddActor("P", 1)
	c := g3.MustAddActor("C", 1)
	g3.MustAddChannel(p, c, 1<<32, 1, 0)
	rep = analyze(t, g3, "overflow")
	if rep.HasErrors() || rep.Count(Warning) == 0 {
		t.Errorf("want warning without error for int32-exceeding iteration:\n%s", rep)
	}
	if rep := analyze(t, healthyGraph(), "overflow"); len(rep.Diagnostics) != 0 {
		t.Errorf("overflow flagged a small graph:\n%s", rep)
	}
}

func TestConnectivityPass(t *testing.T) {
	g := sdf.NewGraph("islands")
	a := g.MustAddActor("A", 1)
	b := g.MustAddActor("B", 1)
	c := g.MustAddActor("C", 1)
	d := g.MustAddActor("D", 1)
	g.MustAddActor("Lone", 1)
	g.MustAddChannel(a, b, 1, 1, 1)
	g.MustAddChannel(b, a, 1, 1, 1)
	g.MustAddChannel(c, d, 1, 1, 1)
	g.MustAddChannel(d, c, 1, 1, 1)
	rep := analyze(t, g, "connectivity")
	var isolated, disconnected bool
	for _, di := range rep.Diagnostics {
		if di.Actor == "Lone" {
			isolated = true
		}
		if strings.Contains(di.Msg, "disconnected") {
			disconnected = true
		}
	}
	if !isolated || !disconnected {
		t.Errorf("want isolated-actor and disconnected-component warnings:\n%s", rep)
	}
	if rep := analyze(t, healthyGraph(), "connectivity"); len(rep.Diagnostics) != 0 {
		t.Errorf("connectivity flagged a connected graph:\n%s", rep)
	}
}

func TestRatesPass(t *testing.T) {
	g := sdf.NewGraph("degenerate")
	a := g.MustAddActor("A", 0)
	b := g.MustAddActor("B", 1)
	g.MustAddChannel(a, a, 2, 1, 1) // self-loop, prod != cons
	g.MustAddChannel(a, b, 1, 1, 0)
	g.MustAddChannel(b, b, 1, 1, 3) // over-tokened guard
	g.MustAddChannel(b, a, 1, 1, 1)
	rep := analyze(t, g, "rates")
	var selfLoopErr, guardInfo, zeroExec bool
	for _, d := range rep.Diagnostics {
		switch {
		case d.Severity == Error && strings.Contains(d.Msg, "self-loop"):
			selfLoopErr = true
		case d.Severity == Info && strings.Contains(d.Msg, "concurrent firings"):
			guardInfo = true
		case d.Severity == Info && strings.Contains(d.Msg, "execution time 0"):
			zeroExec = true
		}
	}
	if !selfLoopErr || !guardInfo || !zeroExec {
		t.Errorf("missing rates diagnostics (selfLoopErr=%v guardInfo=%v zeroExec=%v):\n%s",
			selfLoopErr, guardInfo, zeroExec, rep)
	}
	// Coprime blowup warning.
	g2 := sdf.NewGraph("coprime")
	p := g2.MustAddActor("P", 1)
	c := g2.MustAddActor("C", 1)
	g2.MustAddChannel(p, c, 65537, 257, 0)
	rep = analyze(t, g2, "rates")
	if rep.Count(Warning) == 0 {
		t.Errorf("coprime 65537:257 not warned:\n%s", rep)
	}
}

func TestPrecheck(t *testing.T) {
	if err := Precheck(healthyGraph()); err != nil {
		t.Fatalf("healthy graph failed precheck: %v", err)
	}
	err := Precheck(inconsistentGraph())
	if err == nil {
		t.Fatal("inconsistent graph passed precheck")
	}
	if !errors.Is(err, sdf.ErrInconsistent) {
		t.Errorf("precheck error does not wrap sdf.ErrInconsistent: %v", err)
	}
	var pe *PrecheckError
	if !errors.As(err, &pe) || !pe.Report.HasErrors() {
		t.Errorf("precheck error carries no report: %v", err)
	}
	err = Precheck(deadlockedGraph())
	if !errors.Is(err, ErrDeadlockCycle) {
		t.Errorf("deadlock precheck error does not wrap ErrDeadlockCycle: %v", err)
	}
}

func TestAnalyzeUnknownPass(t *testing.T) {
	if _, err := Analyze(healthyGraph(), Options{Passes: []string{"bogus"}}); err == nil {
		t.Error("unknown pass accepted")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := analyze(t, inconsistentGraph())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Graph != rep.Graph || len(back.Diagnostics) != len(rep.Diagnostics) {
		t.Errorf("round trip lost data: %+v vs %+v", back, rep)
	}
	for i, d := range back.Diagnostics {
		if d.Severity != rep.Diagnostics[i].Severity || d.Pass != rep.Diagnostics[i].Pass {
			t.Errorf("diagnostic %d mismatch: %+v vs %+v", i, d, rep.Diagnostics[i])
		}
	}
	// An empty report still serialises a non-null array.
	empty := &Report{Graph: "g"}
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"diagnostics\": []") {
		t.Errorf("empty diagnostics not an array:\n%s", buf.String())
	}
}

func TestSeverityJSON(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Errorf("severity %v round trip: %v, %v", s, back, err)
		}
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"bogus"`), &s); err == nil {
		t.Error("bogus severity accepted")
	}
}

func TestAnalyzeCSDF(t *testing.T) {
	// Healthy two-phase producer/consumer.
	g := csdf.NewGraph("cs")
	a := g.MustAddActor("A", []int64{1, 2})
	b := g.MustAddActor("B", []int64{3})
	g.MustAddChannel(a, b, []int{1, 1}, []int{2}, 0)
	g.MustAddChannel(b, a, []int{2}, []int{1, 1}, 4)
	rep := AnalyzeCSDF(g)
	if rep.HasErrors() {
		t.Errorf("healthy CSDF graph has errors:\n%s", rep)
	}
	// Deadlocked zero-token cycle.
	g2 := csdf.NewGraph("csdead")
	x := g2.MustAddActor("X", []int64{1})
	y := g2.MustAddActor("Y", []int64{1})
	g2.MustAddChannel(x, y, []int{1}, []int{1}, 0)
	g2.MustAddChannel(y, x, []int{1}, []int{1}, 0)
	rep = AnalyzeCSDF(g2)
	if !rep.HasErrors() {
		t.Errorf("deadlocked CSDF cycle not reported:\n%s", rep)
	}
	// Zero-time actor info.
	g3 := csdf.NewGraph("cszero")
	z := g3.MustAddActor("Z", []int64{0, 0})
	g3.MustAddChannel(z, z, []int{1, 1}, []int{1, 1}, 2)
	rep = AnalyzeCSDF(g3)
	if rep.Count(Info) == 0 {
		t.Errorf("zero-time CSDF actor not reported:\n%s", rep)
	}
	// Two token-starved cycles, the second reachable from the first:
	// one diagnostic each, in a fixed order.
	g4 := csdf.NewGraph("csdead2")
	for _, name := range []string{"P", "Q", "R", "S", "T"} {
		g4.MustAddActor(name, []int64{1})
	}
	for _, c := range [][2]csdf.ActorID{{3, 4}, {4, 2}, {2, 3}, {0, 1}, {1, 0}, {1, 2}} {
		g4.MustAddChannel(c[0], c[1], []int{1}, []int{1}, 0)
	}
	var got []string
	for _, d := range AnalyzeCSDF(g4).Diagnostics {
		if d.Pass == "deadlock" {
			got = append(got, d.Msg)
		}
	}
	want := []string{
		"cycle through {P, Q} cannot enable any first-phase firing (initial < cons[0] everywhere)",
		"cycle through {R, S, T} cannot enable any first-phase firing (initial < cons[0] everywhere)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("deadlock diagnostics =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
