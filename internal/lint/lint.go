// Package lint is the model-level static-analysis layer of the
// repository: a pass-based diagnostics engine over timed SDF graphs that
// rejects structurally unsound inputs *before* they reach the expensive
// reductions and conversions of the DAC'09 paper.
//
// The reduction techniques are only sound on graphs that satisfy a stack
// of preconditions — consistency of the balance equations, freedom from
// token-insufficient cycles, rates whose repetition vectors stay within
// machine integers. Each precondition is one named pass producing
// structured Diagnostics; cheap passes double as prechecks that the
// facade runs in front of throughput analysis and HSDF conversion, and
// the whole set is exposed as `sdftool lint`.
//
// Passes:
//
//	consistency   balance-equation solvability (repetition-vector solver)
//	deadlock      token-insufficient cycles (structural liveness precheck)
//	overflow      repetition-vector and time-stamp magnitude bounds
//	connectivity  disconnected / isolated actors
//	rates         degenerate rates: blocked self-loops, coprime blowup
//	abstraction   §4–5 eligibility: maximal equal-repetition actor groups
package lint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/passes"
	"repro/internal/sdf"
)

// Severity classifies a diagnostic. Error-level diagnostics make the
// analysed graph unusable for the reductions; warnings flag likely
// modelling mistakes; infos are reports (for instance the
// abstraction-eligibility survey).
type Severity int

const (
	// Info reports a property of the graph without judging it.
	Info Severity = iota
	// Warning flags a likely modelling mistake or a scalability risk.
	Warning
	// Error marks a violated precondition of the analyses.
	Error
)

// String names the severity as it appears in human and JSON output.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "info":
		*s = Info
	case "warning":
		*s = Warning
	case "error":
		*s = Error
	default:
		return fmt.Errorf("lint: unknown severity %q", name)
	}
	return nil
}

// Diagnostic is one finding of one pass. Actor and Channel locate the
// finding when it concerns a specific graph element; Fix, when present,
// suggests a remediation.
type Diagnostic struct {
	Pass     string   `json:"pass"`
	Severity Severity `json:"severity"`
	Actor    string   `json:"actor,omitempty"`
	Channel  string   `json:"channel,omitempty"`
	Msg      string   `json:"msg"`
	Fix      string   `json:"fix,omitempty"`
}

// String renders the diagnostic on one line (two with a fix).
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s [%s]", d.Severity, d.Pass)
	if d.Actor != "" {
		fmt.Fprintf(&b, " actor %s:", d.Actor)
	}
	if d.Channel != "" {
		fmt.Fprintf(&b, " channel %s:", d.Channel)
	}
	fmt.Fprintf(&b, " %s", d.Msg)
	if d.Fix != "" {
		fmt.Fprintf(&b, "\n        fix: %s", d.Fix)
	}
	return b.String()
}

// Report is the result of analysing one graph.
type Report struct {
	Graph       string       `json:"graph"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Count returns the number of diagnostics at the given severity.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is Error-level.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// ByPass returns the diagnostics produced by the named pass, in order.
func (r *Report) ByPass(name string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Pass == name {
			out = append(out, d)
		}
	}
	return out
}

// WriteJSON writes the report as indented JSON. The diagnostics array is
// always present (never null), so consumers can index unconditionally.
func (r *Report) WriteJSON(w io.Writer) error {
	if r.Diagnostics == nil {
		r.Diagnostics = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the report for terminals: a summary line followed by one
// entry per diagnostic.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lint %s: %d errors, %d warnings, %d infos\n",
		r.Graph, r.Count(Error), r.Count(Warning), r.Count(Info))
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// Pass is one registered analysis. Cheap passes are linear (or nearly) in
// the graph size, the consistency verdict being the fact table's
// repetition vector, and run as facade prechecks; expensive ones only
// run through Analyze.
type Pass struct {
	Name  string
	Doc   string
	Cheap bool
	run   func(*context) []Diagnostic
}

// context carries the graph and the shared fact layer. All common
// analyses — the repetition vector, connectivity, cycle membership —
// come from one internal/passes fact table, computed once per Analyze
// or Precheck call (or shared with the reduction driver when the caller
// provides the facts).
type context struct {
	g     *sdf.Graph
	facts *passes.Facts
	q     []int64
	qErr  error
}

// Passes returns the registered passes in their canonical run order.
func Passes() []Pass {
	return []Pass{
		{Name: "consistency", Cheap: true, run: runConsistency,
			Doc: "balance equations must admit a non-trivial solution (repetition-vector solver)"},
		{Name: "deadlock", Cheap: true, run: runDeadlock,
			Doc: "no cycle may be token-insufficient on every channel"},
		{Name: "overflow", Cheap: true, run: runOverflow,
			Doc: "repetition vectors and time stamps must stay within machine integers"},
		{Name: "connectivity", Cheap: true, run: runConnectivity,
			Doc: "the analyses assume a weakly connected graph"},
		{Name: "rates", Cheap: true, run: runRates,
			Doc: "degenerate rates: blocked self-loops, zero-time actors, coprime blowup"},
		{Name: "abstraction", Cheap: false, run: runAbstraction,
			Doc: "report maximal equal-repetition actor groups eligible for §4–5 abstraction"},
	}
}

// Options selects which passes Analyze runs. An empty Passes list means
// all of them.
type Options struct {
	Passes []string
}

// Analyze runs the selected passes over g and returns their combined
// report. It fails only on unknown pass names; findings are reported, not
// returned as errors.
func Analyze(g *sdf.Graph, opts Options) (*Report, error) {
	return AnalyzeWith(passes.NewFacts(g), opts)
}

// AnalyzeWith is Analyze against a pre-computed fact table, so callers
// that already paid for the facts (the reduction driver, the serving
// layer) share them with the lint passes instead of recomputing.
func AnalyzeWith(f *passes.Facts, opts Options) (*Report, error) {
	g := f.Graph()
	all := Passes()
	selected := all
	if len(opts.Passes) > 0 {
		byName := make(map[string]Pass, len(all))
		for _, p := range all {
			byName[p.Name] = p
		}
		selected = selected[:0:0]
		for _, name := range opts.Passes {
			p, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return nil, fmt.Errorf("lint: unknown pass %q (have %s)", name, passNames(all))
			}
			selected = append(selected, p)
		}
	}
	cx := newContext(f)
	rep := &Report{Graph: g.Name(), Diagnostics: []Diagnostic{}}
	for _, p := range selected {
		rep.Diagnostics = append(rep.Diagnostics, p.run(cx)...)
	}
	return rep, nil
}

func passNames(ps []Pass) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func newContext(f *passes.Facts) *context {
	cx := &context{g: f.Graph(), facts: f}
	cx.q, cx.qErr = f.Repetition()
	return cx
}

// ErrDeadlockCycle is wrapped by Precheck errors caused by a
// token-insufficient cycle.
var ErrDeadlockCycle = errors.New("lint: token-insufficient cycle deadlocks the graph")

// PrecheckError is the error returned by Precheck when the cheap passes
// find Error-level diagnostics. It carries the full report and unwraps to
// the matching sentinel errors (sdf.ErrInconsistent, ErrDeadlockCycle) so
// callers can errors.Is against the cause.
type PrecheckError struct {
	Report *Report
	causes []error
}

// Error summarises the first error diagnostic and the total count.
func (e *PrecheckError) Error() string {
	first := ""
	n := 0
	for _, d := range e.Report.Diagnostics {
		if d.Severity != Error {
			continue
		}
		if first == "" {
			first = d.Msg
			if d.Channel != "" {
				first = "channel " + d.Channel + ": " + first
			} else if d.Actor != "" {
				first = "actor " + d.Actor + ": " + first
			}
		}
		n++
	}
	if n > 1 {
		return fmt.Sprintf("lint: %s (and %d more errors; run 'sdftool lint')", first, n-1)
	}
	return "lint: " + first
}

// Unwrap exposes the sentinel causes for errors.Is.
func (e *PrecheckError) Unwrap() []error { return e.causes }

// Precheck runs the cheap passes over g and returns a *PrecheckError when
// any of them reports an Error-level diagnostic. The facade calls it in
// front of throughput analysis and the HSDF conversions, so bad inputs
// fail fast with precise diagnostics instead of deep inside an algorithm.
func Precheck(g *sdf.Graph) error {
	return PrecheckWith(passes.NewFacts(g))
}

// PrecheckWith is Precheck against a pre-computed fact table.
func PrecheckWith(f *passes.Facts) error {
	cx := newContext(f)
	rep := &Report{Graph: cx.g.Name(), Diagnostics: []Diagnostic{}}
	for _, p := range Passes() {
		if !p.Cheap {
			continue
		}
		rep.Diagnostics = append(rep.Diagnostics, p.run(cx)...)
	}
	if !rep.HasErrors() {
		return nil
	}
	e := &PrecheckError{Report: rep}
	seen := make(map[string]bool)
	for _, d := range rep.Diagnostics {
		if d.Severity != Error || seen[d.Pass] {
			continue
		}
		seen[d.Pass] = true
		switch d.Pass {
		case "consistency":
			e.causes = append(e.causes, sdf.ErrInconsistent)
		case "deadlock":
			e.causes = append(e.causes, ErrDeadlockCycle)
		}
	}
	return e
}
