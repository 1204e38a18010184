package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/passes"
	"repro/internal/rat"
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
	// A coprime pair whose product wraps int64 is past the bound too.
	g3 := sdf.NewGraph("coprime-wrap")
	p = g3.MustAddActor("A", 1)
	c = g3.MustAddActor("B", 1)
	g3.MustAddChannel(p, c, 3037000501, 3037000502, 0)
	rep = analyze(t, g3, "rates")
	if rep.Count(Warning) == 0 {
		t.Errorf("coprime 3037000501:3037000502 not warned:\n%s", rep)
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

// TestConsistencyMatchesReference runs the consistency pass and its
// elimination-based reference over seeded graphs: random and regular
// multirate consistent graphs, the same with one rate perturbed,
// two-component unions, graphs with isolated actors and graphs with a
// self-loop whose rates differ. The diagnostics must be identical
// wherever the reference's elimination does not overflow, the reference
// must never contradict the solver, and the solver's conflict list must
// be the reference's witness list.
func TestConsistencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := func() *sdf.Graph {
		if rng.Intn(2) == 0 {
			g, err := gen.RandomGraph(rng, gen.RandomOptions{
				Actors: 1 + rng.Intn(8), MaxRep: 1 + rng.Int63n(6), MaxExec: 5,
				Chords: rng.Intn(4), SelfLoop: rng.Intn(2) == 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		g, err := gen.RandomRegularMultirate(rng, gen.RegularOptions{
			Groups: 1 + rng.Intn(3), Copies: 2 + rng.Intn(3), Links: rng.Intn(3), MaxExec: 5,
		}, 1+rng.Int63n(4))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// into copies g's actors and channels into u, bumping one rate of
	// channel bump (none when bump < 0).
	into := func(u, g *sdf.Graph, bump int) {
		off := sdf.ActorID(u.NumActors())
		for _, a := range g.Actors() {
			u.MustAddActor(fmt.Sprintf("%s.%d", a.Name, off), a.Exec)
		}
		for i, c := range g.Channels() {
			if i == bump && rng.Intn(2) == 0 {
				c.Prod += 1 + rng.Intn(3)
			} else if i == bump {
				c.Cons += 1 + rng.Intn(3)
			}
			u.MustAddChannel(off+c.Src, off+c.Dst, c.Prod, c.Cons, c.Initial)
		}
	}
	perturbed := func(g *sdf.Graph) *sdf.Graph {
		u := sdf.NewGraph("perturbed")
		into(u, g, rng.Intn(g.NumChannels()+1)-1)
		return u
	}
	// A conflict met first, then a consistent chain whose rates
	// overflow int64 past A6: the chain's component is consistent, and
	// its overflowed channel is no conflict.
	found := sdf.NewGraph("conflict-then-overflow")
	p, q := found.MustAddActor("P", 1), found.MustAddActor("Q", 1)
	found.MustAddChannel(p, q, 1, 1, 0)
	found.MustAddChannel(p, q, 2, 1, 0)
	prev := found.MustAddActor("A0", 1)
	var overflowed sdf.ChannelID // A6 -> A7, where the rate passes 10^18
	for i := 1; i <= 8; i++ {
		next := found.MustAddActor(fmt.Sprintf("A%d", i), 1)
		if id := found.MustAddChannel(prev, next, 1000, 1, 0); i == 7 {
			overflowed = id
		}
		prev = next
	}
	graphs := []*sdf.Graph{found}
	for trial := 0; trial < 500; trial++ {
		g := base()
		graphs = append(graphs, g, perturbed(g))
		u := sdf.NewGraph("union")
		into(u, perturbed(g), -1)
		into(u, base(), rng.Intn(2)-1)
		graphs = append(graphs, u)
		iso := perturbed(g)
		for k := 1 + rng.Intn(2); k > 0; k-- {
			iso.MustAddActor(fmt.Sprintf("lone%d", k), 1)
		}
		graphs = append(graphs, iso)
		loop := sdf.NewGraph("selfloop")
		into(loop, g, -1)
		a := sdf.ActorID(rng.Intn(loop.NumActors()))
		prod := 1 + rng.Intn(3)
		loop.MustAddChannel(a, a, prod, prod+1+rng.Intn(2), prod)
		graphs = append(graphs, loop)
	}
	compared, inconsistent := 0, 0
	for i, g := range graphs {
		cx := newContext(passes.NewFacts(g))
		got, ref := runConsistency(cx), refConsistency(cx)
		for _, d := range ref {
			if strings.HasPrefix(d.Msg, "internal:") {
				t.Fatalf("graph %d: reference contradicts the solver: %s\n%s", i, d.Msg, g)
			}
		}
		if _, ok := topologyRank(g); ok {
			compared++
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("graph %d: diagnostics differ\ngot  %v\nwant %v\n%s", i, got, ref, g)
			}
		}
		var inc *sdf.InconsistentError
		var conflicts []string
		if errors.As(cx.qErr, &inc) {
			inconsistent++
			for _, id := range inc.Conflicts {
				conflicts = append(conflicts, chanLabel(g, g.Channel(id)))
			}
		} else if cx.qErr != nil {
			t.Fatalf("graph %d: solver failed: %v", i, cx.qErr)
		}
		var witnesses []string
		for _, d := range unbalancedChannels(g) {
			witnesses = append(witnesses, d.Channel)
		}
		if !reflect.DeepEqual(conflicts, witnesses) {
			t.Fatalf("graph %d: solver conflicts %q, reference witnesses %q\n%s", i, conflicts, witnesses, g)
		}
	}
	if compared < 2000 || inconsistent < len(graphs)/3 {
		t.Errorf("compared %d of %d graphs, %d inconsistent: too few to pin the pass", compared, len(graphs), inconsistent)
	}
	// The overflow pass, not the consistency pass, names the chain
	// channel whose rate overflowed.
	d := runOverflow(newContext(passes.NewFacts(found)))
	if len(d) != 1 || d[0].Channel != chanLabel(found, found.Channel(overflowed)) || d[0].Severity != Error {
		t.Errorf("overflow diagnostics %v, want one error on A6 -> A7", d)
	}
}

// refConsistency is the consistency pass as it stood before the verdict
// moved to the repetition-vector solver, kept as the reference that
// TestConsistencyMatchesReference compares runConsistency against. It
// decides solvability of the balance equations through the
// nullspace of the topology matrix Γ (one row per channel: +prod at the
// source column, −cons at the destination; self-loops contribute
// prod−cons), computed by Gaussian elimination over internal/rat. A graph
// with c weakly connected components is consistent iff rank(Γ) = n − c,
// i.e. every component contributes exactly one nullspace dimension — the
// ray spanned by its repetition vector (Lee & Messerschmitt).
//
// When the rank is too large, the pass localises the fault: rates are
// propagated over a spanning forest and every non-tree channel whose
// balance equation disagrees with the propagated rates is reported.
func refConsistency(cx *context) []Diagnostic {
	g := cx.g
	n := g.NumActors()
	if n == 0 || g.NumChannels() == 0 {
		return nil
	}
	if cx.qErr != nil && !errors.Is(cx.qErr, sdf.ErrInconsistent) {
		// The solver failed for a non-structural reason (rational
		// overflow); the overflow pass owns that diagnostic.
		return nil
	}
	rank, rankOK := topologyRank(g)
	comps := cx.facts.Components()
	nComps := 0
	for _, c := range comps {
		if len(c) > 0 {
			nComps++
		}
	}
	consistent := cx.qErr == nil
	var out []Diagnostic
	if rankOK && consistent != (rank == n-nComps) {
		// The two decision procedures disagree: that is a bug in one of
		// them, and worth shouting about rather than hiding.
		out = append(out, Diagnostic{
			Pass: "consistency", Severity: Error,
			Msg: fmt.Sprintf("internal: topology-matrix rank %d (n=%d, components=%d) contradicts the repetition-vector solver", rank, n, nComps),
		})
		return out
	}
	if consistent {
		return nil
	}
	if rankOK {
		out = append(out, Diagnostic{
			Pass: "consistency", Severity: Error,
			Msg: fmt.Sprintf("graph is not consistent: topology matrix has rank %d over %d actors in %d component(s); the balance equations admit only the zero solution",
				rank, n, nComps),
			Fix: "adjust the rates of the channels reported below until every cycle's rate product is balanced",
		})
	}
	out = append(out, unbalancedChannels(g)...)
	return out
}

// topologyRank computes rank(Γ) by fraction-free-ish Gaussian elimination
// over exact rationals. ok is false when an intermediate overflows int64
// (absurd rates); callers then fall back to the propagation witnesses.
func topologyRank(g *sdf.Graph) (rank int, ok bool) {
	n := g.NumActors()
	rows := make([][]rat.Rat, 0, g.NumChannels())
	for _, c := range g.Channels() {
		row := make([]rat.Rat, n)
		if c.Src == c.Dst {
			row[c.Src] = rat.FromInt(int64(c.Prod) - int64(c.Cons))
		} else {
			row[c.Src] = rat.FromInt(int64(c.Prod))
			row[c.Dst] = rat.FromInt(int64(-c.Cons))
		}
		rows = append(rows, row)
	}
	for col := 0; col < n && rank < len(rows); col++ {
		pivot := -1
		for i := rank; i < len(rows); i++ {
			if !rows[i][col].IsZero() {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		p := rows[rank][col]
		for i := rank + 1; i < len(rows); i++ {
			if rows[i][col].IsZero() {
				continue
			}
			f, err := rows[i][col].Div(p)
			if err != nil {
				return 0, false
			}
			for j := col; j < n; j++ {
				t, err := f.Mul(rows[rank][j])
				if err != nil {
					return 0, false
				}
				rows[i][j], err = rows[i][j].Sub(t)
				if err != nil {
					return 0, false
				}
			}
		}
		rank++
	}
	return rank, true
}

// unbalancedChannels propagates rational firing rates over a spanning
// forest (BFS from an arbitrary root per component, rate 1) and reports
// every channel whose balance equation q(src)·prod = q(dst)·cons the
// propagated rates violate. Tree channels always agree by construction,
// so each diagnostic names a genuinely conflicting constraint.
func unbalancedChannels(g *sdf.Graph) []Diagnostic {
	n := g.NumActors()
	type half struct {
		other        sdf.ActorID
		mine, theirs int
		ch           sdf.ChannelID
	}
	adj := make([][]half, n)
	for i, c := range g.Channels() {
		adj[c.Src] = append(adj[c.Src], half{other: c.Dst, mine: c.Prod, theirs: c.Cons, ch: sdf.ChannelID(i)})
		adj[c.Dst] = append(adj[c.Dst], half{other: c.Src, mine: c.Cons, theirs: c.Prod, ch: sdf.ChannelID(i)})
	}
	rates := make([]rat.Rat, n)
	assigned := make([]bool, n)
	unknown := make([]bool, n) // reached past an overflow: no rate to compare
	bad := make(map[sdf.ChannelID]bool)
	for start := 0; start < n; start++ {
		if assigned[start] {
			continue
		}
		queue := []sdf.ActorID{sdf.ActorID(start)}
		rates[start] = rat.One()
		assigned[start] = true
		for head := 0; head < len(queue); head++ {
			a := queue[head]
			for _, h := range adj[a] {
				want, err := rates[a].Mul(rat.MustNew(int64(h.mine), int64(h.theirs)))
				if err != nil || unknown[a] {
					if !assigned[h.other] {
						assigned[h.other], unknown[h.other] = true, true
						queue = append(queue, h.other)
					}
					continue
				}
				if unknown[h.other] {
					continue
				}
				if !assigned[h.other] {
					rates[h.other] = want
					assigned[h.other] = true
					queue = append(queue, h.other)
				} else if !rates[h.other].Equal(want) {
					bad[h.ch] = true
				}
			}
		}
	}
	ids := make([]sdf.ChannelID, 0, len(bad))
	for id := range bad {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Diagnostic, 0, len(ids))
	for _, id := range ids {
		c := g.Channel(id)
		out = append(out, Diagnostic{
			Pass: "consistency", Severity: Error,
			Channel: chanLabel(g, c),
			Msg:     "balance equation q(src)·prod = q(dst)·cons conflicts with the rates implied by the rest of the graph",
			Fix:     "change prod/cons on this channel (or on the conflicting path) so the cycle's rate product is 1",
		})
	}
	return out
}
