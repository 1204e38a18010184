package main

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// kindMap is the cross-package wire-contract check: every error kind the
// serving layer can put on the wire (a string literal returned by
// serve.KindOf, the one classification of every endpoint, sadf kinds
// included) must have an explicit case in sdftool's exit-code table
// (a case literal in an exitCode function under cmd/sdftool). The
// default-to-1 fallback in that table exists for kinds from *future*
// servers, not as a dumping ground for kinds the repository already
// defines — a new kind that silently falls through would ship with an
// undocumented exit code.
//
// The batch wire contract gets the same treatment: every batch item
// status (a literal returned by serve.ItemStatusOf) and batch kind
// (serve.BatchKindOf) must have an explicit case in sdftool's
// batchExitCode table, so a new item outcome cannot ship without a
// documented worst-item exit code.
//
// The check is cross-directory, so it accumulates over the whole run and
// only fires when both sides were actually seen: analysing a single
// package in isolation must not report every kind as unmapped. The two
// mappings gate independently — a tree holding only the single-request
// table stays silent about batch statuses and vice versa.
type kindMap struct {
	kinds map[string]token.Position // kind -> its return in KindOf
	cases map[string]bool           // kinds with an explicit exitCode case
	sawFn bool                      // an exitCode function was harvested

	batchKinds map[string]token.Position // batch status/kind -> its return
	batchCases map[string]bool           // statuses with an explicit batchExitCode case
	sawBatchFn bool                      // a batchExitCode function was harvested
}

func newKindMap() *kindMap {
	return &kindMap{
		kinds: make(map[string]token.Position), cases: make(map[string]bool),
		batchKinds: make(map[string]token.Position), batchCases: make(map[string]bool),
	}
}

// collect harvests one parsed file's contribution to either side of the
// mappings, scoped by the file's logical package path.
func (km *kindMap) collect(fset *token.FileSet, file *ast.File, logical string) {
	dir := strings.ReplaceAll(logical, "\\", "/")
	switch {
	case strings.Contains(dir, "internal/serve/"):
		km.collectKinds(fset, file)
	case strings.Contains(dir, "cmd/sdftool/"):
		km.collectCases(file)
	}
}

// collectKinds records every non-empty string literal returned by the
// wire-classification functions: KindOf (error kinds) feeds the
// single-request mapping, ItemStatusOf and BatchKindOf (item statuses
// and batch kinds) feed the batch mapping.
func (km *kindMap) collectKinds(fset *token.FileSet, file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		switch fn.Name.Name {
		case "KindOf":
			harvestReturns(fset, fn, km.kinds)
		case "ItemStatusOf", "BatchKindOf":
			harvestReturns(fset, fn, km.batchKinds)
		}
	}
}

// harvestReturns records every non-empty string literal fn returns.
func harvestReturns(fset *token.FileSet, fn *ast.FuncDecl, into map[string]token.Position) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		if kind, ok := stringLit(ret.Results[0]); ok && kind != "" {
			if _, seen := into[kind]; !seen {
				into[kind] = fset.Position(ret.Pos())
			}
		}
		return true
	})
}

// collectCases records every string literal appearing in a case clause
// of the exit-code tables: exitCode (the method on remoteError carries
// the kind table; the package-level exitCode switches on sentinel errors
// and contributes no string cases) and batchExitCode (the batch
// status/kind table).
func (km *kindMap) collectCases(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		switch fn.Name.Name {
		case "exitCode":
			km.sawFn = true
			harvestCases(fn, km.cases)
		case "batchExitCode":
			km.sawBatchFn = true
			harvestCases(fn, km.batchCases)
		}
	}
}

// harvestCases records every string literal in fn's case clauses.
func harvestCases(fn *ast.FuncDecl, into map[string]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CaseClause)
		if !ok {
			return true
		}
		for _, e := range cc.List {
			if kind, ok := stringLit(e); ok {
				into[kind] = true
			}
		}
		return true
	})
}

// findings reports every harvested kind without an exit-code case. With
// either side of a mapping missing from the analysed set, that mapping
// cannot be judged and stays silent.
func (km *kindMap) findings() []finding {
	var out []finding
	if len(km.kinds) > 0 && km.sawFn {
		out = append(out, unmapped(km.kinds, km.cases,
			"error kind %s returned by serve.KindOf has no case in sdftool's exitCode table; map it to a documented exit code")...)
	}
	if len(km.batchKinds) > 0 && km.sawBatchFn {
		out = append(out, unmapped(km.batchKinds, km.batchCases,
			"batch wire status %s returned by serve.ItemStatusOf/BatchKindOf has no case in sdftool's batchExitCode table; map it to a documented exit code")...)
	}
	return out
}

// unmapped builds one mapping's findings, sorted by kind for stable
// output.
func unmapped(kinds map[string]token.Position, cases map[string]bool, format string) []finding {
	var names []string
	for kind := range kinds {
		if !cases[kind] {
			names = append(names, kind)
		}
	}
	sort.Strings(names)
	out := make([]finding, 0, len(names))
	for _, kind := range names {
		out = append(out, finding{
			pos:   kinds[kind],
			check: "kindmap",
			msg:   strings.Replace(format, "%s", strconv.Quote(kind), 1),
		})
	}
	return out
}

// stringLit unwraps e to a string literal's value.
func stringLit(e ast.Expr) (string, bool) {
	if p, ok := e.(*ast.ParenExpr); ok {
		return stringLit(p.X)
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
