package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sdfreduce "repro"
)

const sampleText = `sdf demo
actor A 2
actor B 3
chan A B 2 1 0
chan B A 1 2 4
`

// writeSample writes the sample graph to a temp file and returns its path.
func writeSample(t *testing.T, name, contents string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runTool(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestInfo(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "info", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"graph:      demo", "actors:     2", "channels:   2",
		"consistent: true", "iteration length: 3", "live:       true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestRV(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "rv", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "2") {
		t.Errorf("rv output:\n%s", out)
	}
}

func TestThroughputMethods(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	for _, m := range []string{"matrix", "statespace", "hsdf"} {
		out, err := runTool(t, "throughput", "-method", m, path)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !strings.Contains(out, "iteration period: 5/2") {
			t.Errorf("%s output:\n%s", m, out)
		}
	}
	if _, err := runTool(t, "throughput", "-method", "bogus", path); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestLatency(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "latency", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "iteration makespan:") {
		t.Errorf("latency output:\n%s", out)
	}
}

func TestConvert(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "convert", "-algo", "symbolic", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "initial tokens N:  4") {
		t.Errorf("convert output:\n%s", out)
	}
	out, err = runTool(t, "convert", "-algo", "traditional", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "actors:   3") {
		t.Errorf("convert output:\n%s", out)
	}
	// -emit prints a parseable graph.
	out, err = runTool(t, "convert", "-algo", "symbolic", "-emit", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "sdf ") {
		t.Errorf("emitted graph:\n%s", out)
	}
	if _, err := runTool(t, "convert", "-algo", "bogus", path); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestAbstractCommand(t *testing.T) {
	// A regular homogeneous graph the name-based inference can handle.
	src := `sdf reg
actor A1 2
actor A2 5
actor B1 4
actor B2 4
chan A1 A2 1 1 0
chan A2 A1 1 1 1
chan A1 B1 1 1 0
chan A2 B2 1 1 0
chan B1 B2 1 1 0
chan B2 A1 1 1 1
`
	path := writeSample(t, "reg.sdf", src)
	out, err := runTool(t, "abstract", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 abstract actors", "conservativity: proved", "throughput bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("abstract output missing %q:\n%s", want, out)
		}
	}
	out, err = runTool(t, "abstract", "-emit", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "actor A 5") {
		t.Errorf("emitted abstract graph:\n%s", out)
	}
}

func TestUnfoldCommand(t *testing.T) {
	src := "sdf u\nactor A 1\nchan A A 1 1 1\n"
	path := writeSample(t, "u.sdf", src)
	out, err := runTool(t, "unfold", "-n", "3", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "A_u0") || !strings.Contains(out, "A_u2") {
		t.Errorf("unfold output:\n%s", out)
	}
}

func TestSimulateCommand(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "simulate", "-iterations", "4", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simulated 4 iterations", "measured iteration period", "Producer"} {
		if want == "Producer" {
			want = "A #0" // trace lines carry actor names
		}
		if !strings.Contains(out, want) {
			t.Errorf("simulate output missing %q:\n%s", want, out)
		}
	}
}

func TestFmtConversions(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	for _, to := range []string{"text", "xml", "json", "dot"} {
		out, err := runTool(t, "fmt", "-to", to, path)
		if err != nil {
			t.Fatalf("to=%s: %v", to, err)
		}
		if len(out) == 0 {
			t.Errorf("to=%s: empty output", to)
		}
	}
	if _, err := runTool(t, "fmt", "-to", "bogus", path); err == nil {
		t.Error("bogus output format accepted")
	}
	// Round trip through XML: fmt -to xml, then read back with -format.
	xmlOut, err := runTool(t, "fmt", "-to", "xml", path)
	if err != nil {
		t.Fatal(err)
	}
	xmlPath := writeSample(t, "g.xml", xmlOut)
	out, err := runTool(t, "info", xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "consistent: true") {
		t.Errorf("xml round trip info:\n%s", out)
	}
	// JSON with explicit -format override on a .sdf extension.
	jsonOut, err := runTool(t, "fmt", "-to", "json", path)
	if err != nil {
		t.Fatal(err)
	}
	jsonPath := writeSample(t, "weird.sdf", jsonOut)
	if _, err := runTool(t, "info", "-format", "json", jsonPath); err != nil {
		t.Errorf("explicit -format json failed: %v", err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := runTool(t); err == nil {
		t.Error("no arguments accepted")
	}
	if _, err := runTool(t, "nonsense"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := runTool(t, "info"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := runTool(t, "info", "/does/not/exist.sdf"); err == nil {
		t.Error("missing file path accepted")
	}
	bad := writeSample(t, "bad.sdf", "actor X")
	if _, err := runTool(t, "info", bad); err == nil {
		t.Error("malformed graph accepted")
	}
	if _, err := runTool(t, "help"); err == nil {
		t.Error("help should return the usage error")
	}
}

func TestInconsistentGraphInfo(t *testing.T) {
	src := "sdf bad\nactor A 1\nactor B 1\nchan A B 1 1 0\nchan A B 2 1 0\n"
	path := writeSample(t, "bad.sdf", src)
	out, err := runTool(t, "info", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "consistent: false") {
		t.Errorf("info output:\n%s", out)
	}
}

func TestBuffersCommand(t *testing.T) {
	src := `sdf pc
actor P 1
actor C 10
chan P P 1 1 1
chan C C 1 1 1
chan P C 1 1 0
`
	path := writeSample(t, "pc.sdf", src)
	out, err := runTool(t, "buffers", "-maxsteps", "32", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"unbounded-buffer iteration period: 10", "converged"} {
		if !strings.Contains(out, want) {
			t.Errorf("buffers output missing %q:\n%s", want, out)
		}
	}
	// A graph with unbounded throughput is rejected.
	free := writeSample(t, "free.sdf", "sdf f\nactor A 1\nactor B 1\nchan A B 1 1 0\n")
	if _, err := runTool(t, "buffers", free); err == nil {
		t.Error("unbounded graph accepted by buffers")
	}
}

func TestMatrixCommand(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "matrix", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"initial tokens: 4", "eigenvalue (iteration period): 5/2", "eigenvector"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix output missing %q:\n%s", want, out)
		}
	}
	// Acyclic case.
	pipe := writeSample(t, "pipe.sdf", "sdf p\nactor A 1\nactor B 1\nchan A B 1 1 0\n")
	out, err = runTool(t, "matrix", pipe)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "initial tokens: 0") {
		t.Errorf("matrix output:\n%s", out)
	}
}

func TestSimulateGanttAndVCD(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "simulate", "-iterations", "6", "-gantt", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "time 0 ..") || !strings.Contains(out, "A |") {
		t.Errorf("gantt output missing:\n%s", out)
	}
	vcdPath := filepath.Join(t.TempDir(), "out.vcd")
	out, err = runTool(t, "simulate", "-iterations", "4", "-vcd", vcdPath, path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote VCD waveform") {
		t.Errorf("vcd confirmation missing:\n%s", out)
	}
	data, err := os.ReadFile(vcdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "$enddefinitions") {
		t.Error("VCD file malformed")
	}
}

func TestReportCommand(t *testing.T) {
	src := `sdf reg
actor A1 2
actor A2 5
actor B1 4
actor B2 4
chan A1 A2 1 1 0
chan A2 A1 1 1 1
chan A1 B1 1 1 0
chan A2 B2 1 1 0
chan B1 B2 1 1 0
chan B2 A1 1 1 1
`
	path := writeSample(t, "reg.sdf", src)
	out, err := runTool(t, "report", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Analysis report: reg", "## Structure", "## Throughput",
		"## HSDF conversions", "## Abstraction", "Theorem 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Inconsistent graph: the report stops after saying so.
	bad := writeSample(t, "bad.sdf", "sdf b\nactor A 1\nactor B 1\nchan A B 1 1 0\nchan A B 2 1 0\n")
	out, err = runTool(t, "report", bad)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "not consistent") {
		t.Errorf("report missing inconsistency note:\n%s", out)
	}
	// Deadlocked graph.
	dead := writeSample(t, "dead.sdf", "sdf d\nactor A 1\nactor B 1\nchan A B 1 1 0\nchan B A 1 1 0\n")
	out, err = runTool(t, "report", dead)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deadlocks") {
		t.Errorf("report missing deadlock note:\n%s", out)
	}
}

func TestBottleneckCommand(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "bottleneck", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "iteration period: 5/2") || !strings.Contains(out, "critical channels") {
		t.Errorf("bottleneck output:\n%s", out)
	}
	pipe := writeSample(t, "pipe.sdf", "sdf p\nactor A 1\nactor B 1\nchan A B 1 1 0\n")
	out, err = runTool(t, "bottleneck", pipe)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unbounded") {
		t.Errorf("bottleneck output:\n%s", out)
	}
}

const inconsistentText = `sdf bad
actor A 1
actor B 1
chan A B 1 1 0
chan A B 2 1 0
`

const deadlockedText = `sdf dead
actor A 1
actor B 1
chan A B 1 1 0
chan B A 1 1 0
`

func TestLintCommand(t *testing.T) {
	healthy := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "lint", healthy)
	if err != nil {
		t.Fatalf("lint on healthy graph: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 errors") {
		t.Errorf("lint output:\n%s", out)
	}

	bad := writeSample(t, "bad.sdf", inconsistentText)
	out, err = runTool(t, "lint", bad)
	if err == nil {
		t.Fatalf("lint accepted inconsistent graph:\n%s", out)
	}
	if !strings.Contains(out, "consistency") || !strings.Contains(out, "error") {
		t.Errorf("lint output:\n%s", out)
	}

	dead := writeSample(t, "dead.sdf", deadlockedText)
	out, err = runTool(t, "lint", dead)
	if err == nil {
		t.Fatalf("lint accepted deadlocked graph:\n%s", out)
	}
	if !strings.Contains(out, "deadlock") {
		t.Errorf("lint output:\n%s", out)
	}
}

func TestLintJSON(t *testing.T) {
	for name, contents := range map[string]string{
		"bad.sdf": inconsistentText, "dead.sdf": deadlockedText,
	} {
		path := writeSample(t, name, contents)
		out, err := runTool(t, "lint", "-json", path)
		if err == nil {
			t.Fatalf("%s: lint -json reported no error:\n%s", name, out)
		}
		var rep struct {
			Graph       string `json:"graph"`
			Diagnostics []struct {
				Pass     string `json:"pass"`
				Severity string `json:"severity"`
				Msg      string `json:"msg"`
			} `json:"diagnostics"`
		}
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("%s: lint -json emitted invalid JSON: %v\n%s", name, err, out)
		}
		errs := 0
		for _, d := range rep.Diagnostics {
			if d.Severity == "error" {
				errs++
			}
		}
		if errs == 0 {
			t.Errorf("%s: no error-level diagnostics in JSON:\n%s", name, out)
		}
	}
}

func TestLintPassSelection(t *testing.T) {
	path := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "lint", "-passes", "abstraction", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[abstraction]") {
		t.Errorf("lint -passes abstraction output:\n%s", out)
	}
	if strings.Contains(out, "[consistency]") {
		t.Errorf("unselected pass ran:\n%s", out)
	}
	if _, err := runTool(t, "lint", "-passes", "bogus", path); err == nil {
		t.Error("unknown pass accepted")
	}
}

func TestPrecheckWiredIntoFacadeCommands(t *testing.T) {
	bad := writeSample(t, "bad.sdf", inconsistentText)
	dead := writeSample(t, "dead.sdf", deadlockedText)
	for _, args := range [][]string{
		{"throughput", bad},
		{"latency", dead},
		{"convert", "-algo", "symbolic", dead},
		{"convert", "-algo", "traditional", bad},
	} {
		if _, err := runTool(t, args...); err == nil {
			t.Errorf("%v accepted unsound graph", args)
		}
	}
}

// explosiveText is a consistent, live chain whose iteration length
// Σq = 1 + 2000 + 4_000_000 exceeds 10^6: the traditional conversion
// is inadmissible under the default budget, while the matrix engine
// (three initial tokens) answers easily.
const explosiveText = `sdf boom
actor A 1
actor B 1
actor C 1
chan A A 1 1 1
chan B B 1 1 1
chan C C 1 1 1
chan A B 2000 1 0
chan B C 2000 1 0
`

// hugeIterText pushes the iteration length to ~17M firings so that even
// the symbolic iteration takes well over any sub-second deadline.
const hugeIterText = `sdf huge
actor A 1
actor B 1
actor C 1
actor D 1
actor E 1
chan A A 1 1 1
chan B B 1 1 1
chan C C 1 1 1
chan D D 1 1 1
chan E E 1 1 1
chan A B 64 1 0
chan B C 64 1 0
chan C D 64 1 0
chan D E 64 1 0
`

func TestExitCodes(t *testing.T) {
	healthy := writeSample(t, "g.sdf", sampleText)
	bad := writeSample(t, "bad.sdf", inconsistentText)
	boom := writeSample(t, "boom.sdf", explosiveText)
	huge := writeSample(t, "huge.sdf", hugeIterText)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"info", healthy}, 0},
		{"usage", []string{"nonsense"}, 1},
		{"missing-file", []string{"info", "/does/not/exist.sdf"}, 1},
		{"precondition-throughput", []string{"throughput", bad}, 2},
		{"precondition-lint", []string{"lint", bad}, 2},
		{"budget-traditional", []string{"convert", "-algo", "traditional", boom}, 3},
		{"budget-uniform", []string{"simulate", "-budget", "1000", "-iterations", "1", huge}, 3},
		{"deadline-statespace", []string{"throughput", "-method", "statespace", "-timeout", "50ms", "-budget", "-1", huge}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := runTool(t, tc.args...)
			if got := exitCode(err); got != tc.want {
				t.Errorf("exitCode(%v) = %d, want %d", err, got, tc.want)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("command took %v; budget/deadline enforcement should be fast", d)
			}
		})
	}
}

func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("plain"), 1},
		{fmt.Errorf("wrap: %w", sdfreduce.ErrBudgetExceeded), 3},
		{fmt.Errorf("wrap: %w", sdfreduce.ErrCanceled), 3},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), 3},
		{fmt.Errorf("wrap: %w", sdfreduce.ErrEngineFailed), 4},
		{fmt.Errorf("wrap: %w", sdfreduce.ErrInconsistent), 2},
		{fmt.Errorf("wrap: %w", sdfreduce.ErrDeadlockCycle), 2},
		{fmt.Errorf("3 %w", errLintDiagnostics), 2},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// -method resilient names no engine: the hedged policy is the one
// policy, so the method is refused as unknown (exit code 1).
func TestThroughputResilient(t *testing.T) {
	for _, sample := range []string{sampleText, explosiveText} {
		path := writeSample(t, "g.sdf", sample)
		out, err := runTool(t, "throughput", "-method", "resilient", path)
		if err == nil || !strings.Contains(err.Error(), `unknown method "resilient"`) || exitCode(err) != 1 {
			t.Errorf("-method resilient: err = %v (exit %d), want the unknown-method error\n%s", err, exitCode(err), out)
		}
	}
}

func TestTimeoutFlagOnHealthyGraph(t *testing.T) {
	// A generous deadline must not disturb a fast analysis.
	healthy := writeSample(t, "g.sdf", sampleText)
	out, err := runTool(t, "throughput", "-timeout", "30s", healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "iteration period: 5/2") {
		t.Errorf("output:\n%s", out)
	}
}
