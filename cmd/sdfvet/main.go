// Command sdfvet is the repository's code-level static analyzer: custom
// lints, built on the standard library's go/ast, go/parser and go/token
// only, that enforce the exact-arithmetic invariants the SDF analyses
// depend on. It complements `sdftool lint` (which analyses *models*) by
// analysing the *code* that manipulates them.
//
// Checks:
//
//	ratcmp    rat.Rat values compared with == or != (use Equal/Cmp):
//	          raw struct comparison is exact only because Rats are kept
//	          normalised; method comparison states the intent and survives
//	          representation changes
//	mpcmp     max-plus scalars compared with == or != against
//	          maxplus.NegInf or on declared maxplus.T values (use
//	          IsNegInf/Cmp) outside the defining package
//	floatconv float64 conversions or Rat.Float() calls inside the exact
//	          kernels internal/core and internal/maxplus
//	droperr   discarded error results from Validate and the analysis
//	          entry points (bare calls or assignments to _)
//	minmaxint math.MinInt*/math.MaxInt* literals outside the arithmetic
//	          kernels internal/rat and internal/maxplus, where the
//	          max-plus −∞ sentinel (or checked rat arithmetic) belongs
//	kindmap   error kinds returned by serve.KindOf (string literals)
//	          missing an explicit case in sdftool's exitCode table:
//	          every kind the server can put on the wire must map to a
//	          documented CLI exit code, not fall through the default
//	          (cross-directory; silent unless both sides are analysed)
//
// Usage:
//
//	sdfvet [dir | dir/...]...
//
// With no arguments it analyses ./... . Directories named testdata are
// skipped, matching the go tool. Findings print as
// "path:line:col: [check] message"; the exit status is 1 when any
// finding is reported and 2 on usage or parse errors.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	findings, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdfvet:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// finding is one reported violation.
type finding struct {
	pos   token.Position
	check string
	msg   string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.check, f.msg)
}

// run analyses the packages named by args (default "./...") and writes
// findings to out, returning them for tests.
func run(args []string, out io.Writer) ([]finding, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "...")
		root = filepath.Clean(strings.TrimSuffix(root, string(filepath.Separator)))
		if root == "" || root == "."+string(filepath.Separator) {
			root = "."
		}
		if !recursive {
			dirs = append(dirs, root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var all []finding
	fset := token.NewFileSet()
	km := newKindMap()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", path, err)
			}
			logical := logicalPath(path)
			all = append(all, analyzeFile(fset, file, logical)...)
			km.collect(fset, file, logical)
		}
	}
	all = append(all, km.findings()...)
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, f := range all {
		fmt.Fprintln(out, f)
	}
	return all, nil
}

// logicalPath strips everything up to and including a "testdata/src/"
// marker, so fixture trees mirror real package paths and get the same
// per-package check scoping as the code they imitate.
func logicalPath(path string) string {
	p := filepath.ToSlash(path)
	if i := strings.LastIndex(p, "testdata/src/"); i >= 0 {
		return p[i+len("testdata/src/"):]
	}
	return p
}
