package sdfio

import (
	"strings"
	"testing"
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
