package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// locPackages are the packages reported one by one as loc.<name>: the
// internal packages by directory name, the commands as cmd.<name>, the
// root facade as repro and the example programs together as examples.
// The list is fixed so the metric set does not change when a package is
// deleted (it then reads 0); a new package is counted in loc.total only.
var locPackages = []string{
	"analysis", "benchmarks", "buffersizing", "core", "csdf", "dse", "fleet", "gen", "guard",
	"lint", "mapping", "maxplus", "mcm", "obs", "passes", "rat", "sadf", "schedule", "sdf",
	"sdfio", "serve", "sim", "testutil", "trace", "transform", "verify",
	"cmd.sdfbench", "cmd.sdfrouter", "cmd.sdfserved", "cmd.sdftool", "cmd.sdfvet",
	"repro", "examples",
}

// countLines counts the lines of every non-test Go file of the module at
// root, per package, outside testdata and this benchmark's directory.
func countLines(root string) (map[string]int, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("loc: %s is not the module root: %w", root, err)
	}
	out := map[string]int{"loc.total": 0}
	for _, p := range locPackages {
		out["loc."+p] = 0
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "servebench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(data, []byte("\n"))
		out["loc.total"] += n
		key := "loc." + locPackage(filepath.ToSlash(filepath.Dir(rel)))
		if _, listed := out[key]; listed {
			out[key] += n
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("loc: %w", err)
	}
	return out, nil
}

// locPackage names the package directory dir (relative to the root).
func locPackage(dir string) string {
	parts := strings.Split(dir, "/")
	switch {
	case dir == ".":
		return "repro"
	case parts[0] == "internal" && len(parts) > 1:
		return parts[1]
	case parts[0] == "cmd" && len(parts) > 1:
		return "cmd." + parts[1]
	case parts[0] == "examples":
		return "examples"
	}
	return dir
}
