package sdfio

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sadf"
	"repro/internal/sdf"
)

// FuzzSADFParse drives the FSM-SADF text parser with arbitrary input.
// The contract under fuzzing mirrors FuzzParse: ParseSADFText never
// panics, every model it accepts satisfies every sadf.Model.Validate
// invariant (all FSM/scenario cross-references resolve, scenarios share
// one token signature, every state is reachable — the analyses behind
// /v1/sadf assume all of it), and accepted models survive a
// serialise/re-parse round trip in both text and JSON.
func FuzzSADFParse(f *testing.F) {
	seeds := []string{
		"",
		"sadf demo\nscenario lo\nactor A 1\nactor B 2\nchan A B 1 1 1\nchan B A 1 1 1\n" +
			"scenario hi\nactor A 3\nactor B 4\nchan A B 1 1 1\nchan B A 1 1 1\n" +
			"state slo lo\nstate shi hi\ntrans slo shi\ntrans shi slo\ninitial slo\n",
		"# comment\n\nsadf g\nscenario s\nactor A 1\nchan A A 1 1 1\nstate q s\ntrans q q\ninitial q\n",
		"sadf g\nscenario s\nactor A 1\nchan A A 1 1 1\nstate q s\ninitial q\n",            // no transitions: acyclic FSM
		"sadf g\nstate q missing\ninitial q\n",                                             // state -> unknown scenario
		"sadf g\nscenario s\nactor A 1\nchan A A 1 1 1\nstate q s\ntrans q r\ninitial q\n", // unknown transition target
		"sadf g\nscenario s\nactor A 1\nchan A A 1 1 1\nstate q s\ninitial r\n",            // unknown initial
		"sadf g\nscenario s\nactor A 1\nstate q s\ninitial q\n",                            // no tokens
		"sadf g\nscenario a\nactor A 1\nchan A A 1 1 1\nscenario b\nactor A 1\nchan A A 1 1 2\n" +
			"state q a\nstate r b\ntrans q r\ntrans r q\ninitial q\n", // mismatched token signature
		"sadf g\nscenario s\nactor A 1\nchan A A 1 1 1\nstate q s\nstate r s\ntrans q q\ninitial q\n", // unreachable state
		"actor A 1\n", // actor before scenario
		"chan A A 1 1 1\n",
		"sadf\n",
		"scenario s\nscenario s\n", // duplicate scenario
		"initial q\ninitial q\n",   // duplicate initial
		"bogus directive\n",
		invalidUTF8SADF, // a scenario named "\xff": not valid UTF-8
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		m, err := ParseSADFText(input)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("ParseSADFText accepted a model that Validate rejects: %v\ninput: %q", verr, input)
		}
		// Round trip: what we serialise must parse back to the same shape.
		text := SADFTextString(m)
		if want := refSADFText(m); text != want {
			t.Fatalf("SADFTextString differs from the fmt writer\ngot:  %q\nwant: %q", text, want)
		}
		m2, err := ParseSADFText(text)
		if err != nil {
			t.Fatalf("re-parsing serialised model failed: %v\nserialised: %q\ninput: %q", err, text, input)
		}
		if len(m2.Scenarios) != len(m.Scenarios) || len(m2.States) != len(m.States) ||
			len(m2.Transitions) != len(m.Transitions) || m2.Initial != m.Initial {
			t.Fatalf("text round trip changed shape\ninput: %q", input)
		}
		var b1, b2 strings.Builder
		if err := WriteSADFJSON(&b1, m); err != nil {
			t.Fatalf("WriteSADFJSON failed on an accepted model: %v\ninput: %q", err, input)
		}
		m3, err := ReadSADFJSON(strings.NewReader(b1.String()))
		if err != nil {
			t.Fatalf("re-parsing serialised JSON failed: %v\njson: %q\ninput: %q", err, b1.String(), input)
		}
		if err := WriteSADFJSON(&b2, m3); err != nil {
			t.Fatalf("WriteSADFJSON failed after JSON round trip: %v", err)
		}
		if b1.String() != b2.String() {
			t.Fatalf("JSON round trip is not a fixpoint\nfirst: %q\nsecond: %q", b1.String(), b2.String())
		}
	})
}

// invalidUTF8SADF is two copies of a two-actor ring, one of them in a
// scenario named by the single byte 0xff. The JSON writer would turn
// that byte into U+FFFD, so a second JSON write would differ from the
// first; the model must be refused instead.
const invalidUTF8SADF = "sadf g\nscenario lo\nactor A 1\nactor B 2\nchan A B 1 1 1\nchan B A 1 1 1\n" +
	"scenario \xff\nactor A 3\nactor B 4\nchan A B 1 1 1\nchan B A 1 1 1\n" +
	"state q lo\nstate r \xff\ntrans q r\ntrans r q\ninitial q\n"

// TestSADFReadersRejectInvalidUTF8: a scenario, actor or state name
// that is not valid UTF-8 is refused by the text reader.
func TestSADFReadersRejectInvalidUTF8(t *testing.T) {
	ring := "sadf g\nscenario s\nactor A 1\nactor B 2\nchan A B 1 1 1\nchan B A 1 1 1\nstate q s\ntrans q q\ninitial q\n"
	for what, input := range map[string]string{
		"scenario": invalidUTF8SADF,
		"actor":    strings.ReplaceAll(ring, "B", "B\xfe"),
		"state":    strings.ReplaceAll(ring, "q", "q\xc3"),
	} {
		if _, err := ParseSADFText(input); err == nil || !strings.Contains(err.Error(), "UTF-8") {
			t.Errorf("%s name: err = %v, want a UTF-8 rejection", what, err)
		}
	}
	if _, err := ParseSADFText(ring); err != nil {
		t.Fatalf("valid ring rejected: %v", err)
	}
}

// refWriteSADFText is the fmt-based writer the strconv one replaced,
// kept as the reference for its output bytes.
func refWriteSADFText(w io.Writer, m *sadf.Model) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "sadf %s\n", m.Name)
	for _, s := range m.Scenarios {
		fmt.Fprintf(bw, "scenario %s\n", s.Name)
		for _, a := range s.Graph.Actors() {
			fmt.Fprintf(bw, "actor %s %d\n", a.Name, a.Exec)
		}
		for _, c := range s.Graph.Channels() {
			fmt.Fprintf(bw, "chan %s %s %d %d %d\n",
				s.Graph.Actor(c.Src).Name, s.Graph.Actor(c.Dst).Name, c.Prod, c.Cons, c.Initial)
		}
	}
	for _, st := range m.States {
		fmt.Fprintf(bw, "state %s %s\n", st.Name, st.Scenario)
	}
	for _, tr := range m.Transitions {
		fmt.Fprintf(bw, "trans %s %s\n", tr.From, tr.To)
	}
	fmt.Fprintf(bw, "initial %s\n", m.Initial)
	return bw.Flush()
}

func refSADFText(m *sadf.Model) string {
	var b strings.Builder
	_ = refWriteSADFText(&b, m)
	return b.String()
}

// poolModel draws model v of the seeded sadf-cold pool as the served
// benchmark does: ring scenarios with one token per channel and a
// random FSM with a cycle through every state.
func poolModel(seed int64, v int) *sadf.Model {
	rng := func(salt, i int) *rand.Rand {
		return rand.New(rand.NewSource(seed*1_000_003 + int64(salt)*7_919_999 + int64(i)))
	}
	cell := rng(7, v/64).Perm(64)[v%64]
	r := rng(4, v)
	ring := min(4+4*(cell%8)+r.Intn(4), 32)
	states := min(2+4*(cell/8)+r.Intn(4), 32)
	scenarios := min(2+r.Intn(4), states)
	m := &sadf.Model{Name: fmt.Sprintf("ring%d-s%d-q%d", ring, scenarios, states)}
	for k := 0; k < scenarios; k++ {
		g := sdf.NewGraph(fmt.Sprintf("scn%d", k))
		for a := 0; a < ring; a++ {
			g.MustAddActor(fmt.Sprintf("A%d", a), 1+r.Int63n(9))
		}
		for a := 0; a < ring; a++ {
			g.MustAddChannelByName(fmt.Sprintf("A%d", a), fmt.Sprintf("A%d", (a+1)%ring), 1, 1, 1)
		}
		m.Scenarios = append(m.Scenarios, sadf.Scenario{Name: fmt.Sprintf("s%d", k), Graph: g})
	}
	for q := 0; q < states; q++ {
		scn := q
		if q >= scenarios {
			scn = r.Intn(scenarios)
		}
		m.States = append(m.States, sadf.State{Name: fmt.Sprintf("q%d", q), Scenario: fmt.Sprintf("s%d", scn)})
	}
	seen := map[[2]int]bool{}
	addTrans := func(from, to int) {
		if !seen[[2]int{from, to}] {
			seen[[2]int{from, to}] = true
			m.Transitions = append(m.Transitions, sadf.Transition{From: fmt.Sprintf("q%d", from), To: fmt.Sprintf("q%d", to)})
		}
	}
	for q := 0; q < states; q++ {
		addTrans(q, (q+1)%states)
		if r.Intn(2) == 0 {
			addTrans(q, q)
		}
		for e := r.Intn(3); e > 0; e-- {
			addTrans(q, r.Intn(states))
		}
	}
	m.Initial = "q0"
	return m
}

// TestSADFTextMatchesFmtWriter: the strconv writer renders the three
// seeded sadf-cold pools and a multi-rate model with large numbers
// byte for byte as the fmt writer did.
func TestSADFTextMatchesFmtWriter(t *testing.T) {
	var models []*sadf.Model
	for seed := int64(1); seed <= 3; seed++ {
		for v := 0; v < 256; v++ {
			models = append(models, poolModel(seed, v))
		}
	}
	g := sdf.NewGraph("wide")
	g.MustAddActor("ä", 1<<62)
	g.MustAddActor("B", 0)
	g.MustAddChannelByName("ä", "B", 3000, 1, 0)
	g.MustAddChannelByName("B", "ä", 1, 3000, 2999)
	models = append(models, &sadf.Model{Name: "ünï", Scenarios: []sadf.Scenario{{Name: "s", Graph: g}},
		States: []sadf.State{{Name: "q", Scenario: "s"}}, Initial: "q"})
	for _, m := range models {
		got, want := SADFTextString(m), refSADFText(m)
		if got != want {
			t.Fatalf("%s: strconv writer differs\ngot:  %q\nwant: %q", m.Name, got, want)
		}
		var b strings.Builder
		if err := WriteSADFText(&b, m); err != nil || b.String() != want {
			t.Fatalf("%s: WriteSADFText differs (err %v)", m.Name, err)
		}
	}
}
