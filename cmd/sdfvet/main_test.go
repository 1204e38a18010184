package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var knownChecks = map[string]bool{
	"ratcmp": true, "mpcmp": true, "floatconv": true, "droperr": true, "minmaxint": true,
	"kindmap": true,
}

// wantMarkers reads every fixture file and returns, keyed by
// "file:line", the set of checks a "// want <check>..." comment expects
// on that line.
func wantMarkers(t *testing.T, root string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, marker, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			var checks []string
			for _, c := range strings.Fields(marker) {
				if !knownChecks[c] {
					t.Fatalf("%s:%d: unknown check %q in want marker", path, line, c)
				}
				checks = append(checks, c)
			}
			sort.Strings(checks)
			want[fmt.Sprintf("%s:%d", filepath.ToSlash(path), line)] = checks
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtures asserts the analyzer reports exactly the violations
// marked in the seeded fixture tree — no misses, no extras.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	var out bytes.Buffer
	findings, err := run([]string{root + "/..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]string)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.ToSlash(f.pos.Filename), f.pos.Line)
		got[key] = append(got[key], f.check)
	}
	for key := range got {
		sort.Strings(got[key])
	}
	want := wantMarkers(t, root)
	for key, checks := range want {
		if strings.Join(got[key], " ") != strings.Join(checks, " ") {
			t.Errorf("%s: got checks %v, want %v", key, got[key], checks)
		}
	}
	for key, checks := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected findings %v", key, checks)
		}
	}
	if len(want) == 0 {
		t.Fatal("no want markers found; fixture tree missing?")
	}
}

// TestKindMapNeedsBothSides: kindmap is a cross-directory check, so
// analysing only the serving side (no exitCode table in scope) must stay
// silent instead of reporting every kind as unmapped.
func TestKindMapNeedsBothSides(t *testing.T) {
	var out bytes.Buffer
	findings, err := run([]string{filepath.Join("testdata", "src", "internal", "serve")}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.check == "kindmap" {
			t.Errorf("kindmap finding without the exit-code side in scope: %s", f)
		}
	}
}

// TestRepoClean runs the analyzer over the entire repository and fails
// on any finding, making sdfvet regressions fail `go test ./...`.
func TestRepoClean(t *testing.T) {
	var out bytes.Buffer
	findings, err := run([]string{filepath.Join("..", "..") + "/..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) > 0 {
		t.Errorf("sdfvet findings in repository:\n%s", out.String())
	}
}

// TestScopeFor pins the per-package exemption table.
func TestScopeFor(t *testing.T) {
	cases := []struct {
		path string
		want fileScope
	}{
		{"internal/rat/rat.go", fileScope{checkRatCmp: false, checkMpCmp: true, checkFloatConv: false, checkMinMaxInt: false}},
		{"internal/maxplus/scalar.go", fileScope{checkRatCmp: true, checkMpCmp: false, checkFloatConv: true, checkMinMaxInt: false}},
		{"internal/core/hsdfbuild.go", fileScope{checkRatCmp: true, checkMpCmp: true, checkFloatConv: true, checkMinMaxInt: true}},
		{"internal/analysis/latency.go", fileScope{checkRatCmp: true, checkMpCmp: true, checkFloatConv: false, checkMinMaxInt: true}},
		{"sdfreduce.go", fileScope{checkRatCmp: true, checkMpCmp: true, checkFloatConv: false, checkMinMaxInt: true}},
	}
	for _, c := range cases {
		if got := scopeFor(c.path); got != c.want {
			t.Errorf("scopeFor(%q) = %+v, want %+v", c.path, got, c.want)
		}
	}
}

// TestLogicalPath pins the fixture re-rooting rule.
func TestLogicalPath(t *testing.T) {
	if got := logicalPath(filepath.Join("cmd", "sdfvet", "testdata", "src", "internal", "rat", "own.go")); got != "internal/rat/own.go" {
		t.Errorf("logicalPath = %q, want internal/rat/own.go", got)
	}
	if got := logicalPath(filepath.Join("internal", "sdf", "graph.go")); got != filepath.ToSlash(filepath.Join("internal", "sdf", "graph.go")) {
		t.Errorf("logicalPath = %q", got)
	}
}
