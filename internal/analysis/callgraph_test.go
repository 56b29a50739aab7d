package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildGraph type-checks one or more single-file packages and builds
// the module call graph over them. files maps import path -> source.
func buildGraph(t *testing.T, files map[string]string) *CallGraph {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []*Package
	checked := map[string]*types.Package{}
	// Two passes so intra-module imports resolve regardless of order is
	// unnecessary here: tests keep packages import-free or ordered.
	for _, path := range sortedKeys(files) {
		file, err := parser.ParseFile(fset, path+"/src.go", files[path], 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: mapImporter{checked, importer.Default()}}
		tp, err := conf.Check(path, fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", path, err)
		}
		checked[path] = tp
		pkgs = append(pkgs, &Package{Path: path, Fset: fset, Files: []*ast.File{file}, Types: tp, Info: info})
	}
	return buildCallGraph(pkgs)
}

type mapImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

func sortedKeys(m map[string]string) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

func findFunc(t *testing.T, m *CallGraph, name string) *Func {
	t.Helper()
	for _, f := range m.Funcs() {
		if f.Name() == name {
			return f
		}
	}
	t.Fatalf("function %s not in module", name)
	return nil
}

func TestCallGraphStaticCall(t *testing.T) {
	m := buildGraph(t, map[string]string{"a": `package a
func Root() { leaf() }
func leaf() {}
`})
	root := findFunc(t, m, "Root")
	if len(root.Calls) != 1 {
		t.Fatalf("Root calls = %d, want 1", len(root.Calls))
	}
	c := root.Calls[0]
	if len(c.Callees) != 1 || c.Callees[0].Name() != "leaf" {
		t.Fatalf("callee = %+v, want leaf", c.Callees)
	}
	if c.Interface || c.InFuncLit || c.InPanicArg {
		t.Fatalf("markers = %+v, want all false", c)
	}
}

func TestCallGraphInterfaceResolution(t *testing.T) {
	m := buildGraph(t, map[string]string{"a": `package a
type Runner interface{ run() }
type fast struct{}
func (fast) run() {}
type slow struct{}
func (*slow) run() {}
type unrelated struct{}
func (unrelated) walk() {}
func Drive(r Runner) { r.run() }
`})
	drive := findFunc(t, m, "Drive")
	if len(drive.Calls) != 1 {
		t.Fatalf("Drive calls = %d, want 1", len(drive.Calls))
	}
	c := drive.Calls[0]
	if !c.Interface {
		t.Fatal("interface call not marked")
	}
	var names []string
	for _, callee := range c.Callees {
		names = append(names, callee.Name())
	}
	got := strings.Join(names, ",")
	if got != "fast.run,slow.run" {
		t.Fatalf("implementers = %q, want fast.run,slow.run", got)
	}
}

func TestCallGraphFuncLitAndPanicMarkers(t *testing.T) {
	m := buildGraph(t, map[string]string{"a": `package a
func describe() string { return "x" }
func inner() {}
func Root() {
	f := func() { inner() }
	f()
	panic(describe())
}
`})
	root := findFunc(t, m, "Root")
	var innerCall, fCall, describeCall *Call
	for _, c := range root.Calls {
		switch {
		case len(c.Callees) == 1 && c.Callees[0].Name() == "inner":
			innerCall = c
		case len(c.Callees) == 1 && c.Callees[0].Name() == "describe":
			describeCall = c
		case len(c.Callees) == 0:
			fCall = c
		}
	}
	if innerCall == nil || !innerCall.InFuncLit {
		t.Fatalf("inner() must be marked InFuncLit: %+v", innerCall)
	}
	if describeCall == nil || !describeCall.InPanicArg {
		t.Fatalf("describe() must be marked InPanicArg: %+v", describeCall)
	}
	if fCall == nil {
		t.Fatal("function-value call f() must appear with no callees")
	}
	if fCall.InFuncLit || fCall.InPanicArg {
		t.Fatalf("f() markers wrong: %+v", fCall)
	}
}

func TestCallGraphSkipsConversionsAndBuiltins(t *testing.T) {
	m := buildGraph(t, map[string]string{"a": `package a
type wrap int
func Root() {
	xs := make([]int, 0)
	xs = append(xs, 1)
	_ = wrap(len(xs))
}
`})
	root := findFunc(t, m, "Root")
	if len(root.Calls) != 0 {
		t.Fatalf("Root calls = %d, want 0 (make/append/len/conversion all skipped)", len(root.Calls))
	}
}

func TestCallGraphCrossPackage(t *testing.T) {
	m := buildGraph(t, map[string]string{
		"a": `package a
func Leaf() {}
`,
		"b": `package b
import "a"
func Root() { a.Leaf() }
`,
	})
	root := findFunc(t, m, "Root")
	if len(root.Calls) != 1 || len(root.Calls[0].Callees) != 1 {
		t.Fatalf("cross-package call unresolved: %+v", root.Calls)
	}
	callee := root.Calls[0].Callees[0]
	if callee.Pkg.Path != "a" {
		t.Fatalf("callee pkg = %s, want a", callee.Pkg.Path)
	}
	if got := callee.DisplayFrom("b"); got != "a.Leaf" {
		t.Fatalf("DisplayFrom = %q, want a.Leaf", got)
	}
	if got := callee.DisplayFrom("a"); got != "Leaf" {
		t.Fatalf("DisplayFrom same-pkg = %q, want Leaf", got)
	}
}

func TestReachableAndChain(t *testing.T) {
	m := buildGraph(t, map[string]string{"a": `package a
func Entry() { mid() }
func mid() { deep() }
func deep() {}
func orphan() {}
`})
	entry := findFunc(t, m, "Entry")
	deep := findFunc(t, m, "deep")
	orphan := findFunc(t, m, "orphan")
	parent := m.Reachable([]*Func{entry}, nil)
	if _, ok := parent[deep]; !ok {
		t.Fatal("deep not reachable from Entry")
	}
	if _, ok := parent[orphan]; ok {
		t.Fatal("orphan must not be reachable")
	}
	if got := Chain(parent, deep, "a"); got != "Entry → mid → deep" {
		t.Fatalf("chain = %q", got)
	}
}

func TestCFGViaFuncLazy(t *testing.T) {
	m := buildGraph(t, map[string]string{"a": `package a
func F() { defer G(); return }
func G() {}
`})
	f := findFunc(t, m, "F")
	cfg := f.CFG()
	if cfg == nil || len(cfg.Defers) != 1 {
		t.Fatalf("CFG defers = %+v, want 1", cfg)
	}
	if f.CFG() != cfg {
		t.Fatal("CFG not cached")
	}
}
