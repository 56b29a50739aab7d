// Package flow is the analysis suite's shared flow-sensitive
// infrastructure: an intraprocedural control-flow graph (basic blocks
// over ast.Stmt with branch, loop and defer edges) and a module-wide
// call graph (static calls plus interface calls resolved to in-module
// implementers via go/types method sets).
//
// The purely syntactic analyzers (simdet, mapiter, errpropagate) ask
// "does this statement do X"; the invariants the sharded engine needs
// are flow properties — what is held when a call happens, what is
// reachable from a run path, in what order values are combined — and
// those are answered here. Every analyzer receives the same *Module
// through its Pass, built once per lint run.
//
// Deliberate limits, shared by every client (see DESIGN.md §9):
//
//   - No aliasing analysis. A lock or variable reached through a copied
//     pointer is invisible; lock identities conflate all instances of a
//     named type (which is the right granularity for an order
//     discipline, and an over-approximation for re-entry).
//   - Calls through function-typed values and fields are unresolved.
//     Interface method calls resolve to every in-module named type that
//     implements the interface; external implementers are invisible.
//   - Basic blocks hold whole statements; evaluation order inside one
//     statement is approximated by AST order.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Pkg is one type-checked package handed to Build. It mirrors the
// loader's view without importing it, so flow stays dependency-free.
type Pkg struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Func is one module function or method with a body.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Pkg
	// Calls lists every call site in the body (closures included), in
	// source order, with resolved in-module targets.
	Calls []*Call

	cfg *CFG
}

// Call is one call site inside a Func.
type Call struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// Callees are the resolved in-module targets: one for a static
	// call, every in-module implementer for an interface method call,
	// empty when the target is external or a function value.
	Callees []*Func
	// Interface marks a dynamic call resolved through implementers.
	Interface bool
	// InFuncLit marks calls lexically inside a closure: the enclosing
	// function defines but does not necessarily execute them.
	InFuncLit bool
	// InPanicArg marks calls inside a panic argument list — the dying
	// words path, exempt from hot-path allocation rules.
	InPanicArg bool
}

// Module is the call graph over every loaded package.
type Module struct {
	Fset  *token.FileSet
	Pkgs  []*Pkg
	funcs map[*types.Func]*Func
	// sorted holds every Func ordered by source position, the canonical
	// iteration order for deterministic reports.
	sorted []*Func
}

// Build constructs the module call graph. Packages are sorted by import
// path; functions by source position; call targets by position — every
// downstream iteration is deterministic.
func Build(fset *token.FileSet, pkgs []*Pkg) *Module {
	m := &Module{Fset: fset, Pkgs: append([]*Pkg(nil), pkgs...)}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })

	m.funcs = make(map[*types.Func]*Func)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.funcs[obj] = &Func{Obj: obj, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, fn := range m.funcs {
		m.sorted = append(m.sorted, fn)
	}
	sort.Slice(m.sorted, func(i, j int) bool { return m.sorted[i].Decl.Pos() < m.sorted[j].Decl.Pos() })
	for _, fn := range m.sorted {
		m.resolveCalls(fn)
	}
	return m
}

// Funcs returns every module function in source-position order.
func (m *Module) Funcs() []*Func { return m.sorted }

// CFG returns the function's control-flow graph, built on first use.
// Module methods are not safe for concurrent use; the driver runs
// analyzers sequentially.
func (f *Func) CFG() *CFG {
	if f.cfg == nil {
		f.cfg = NewCFG(f.Decl.Body)
	}
	return f.cfg
}

// Name returns the function's bare display name: "Type.Method" for
// methods, "Func" for functions.
func (f *Func) Name() string {
	if recv := f.Obj.Type().(*types.Signature).Recv(); recv != nil {
		return recvTypeName(recv.Type()) + "." + f.Obj.Name()
	}
	return f.Obj.Name()
}

// DisplayFrom renders the function name for a diagnostic emitted in
// fromPkg: bare within the same package, package-qualified otherwise.
func (f *Func) DisplayFrom(fromPkg string) string {
	if f.Pkg.Path == fromPkg {
		return f.Name()
	}
	return f.Pkg.Types.Name() + "." + f.Name()
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// Reachable computes the functions reachable from entries over call
// edges, in deterministic BFS order. The returned map carries the BFS
// parent of each reached function (entries map to nil), from which
// Chain reconstructs a shortest call path.
func (m *Module) Reachable(entries []*Func) map[*Func]*Func {
	parent := make(map[*Func]*Func)
	queue := append([]*Func(nil), entries...)
	sort.Slice(queue, func(i, j int) bool { return queue[i].Decl.Pos() < queue[j].Decl.Pos() })
	for _, e := range queue {
		parent[e] = nil
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, call := range f.Calls {
			for _, callee := range call.Callees {
				if _, seen := parent[callee]; seen {
					continue
				}
				parent[callee] = f
				queue = append(queue, callee)
			}
		}
	}
	return parent
}

// Chain renders the BFS path from an entry to f as "a → b → c", using
// DisplayFrom(fromPkg) for each hop. Long chains elide their middle.
func Chain(parent map[*Func]*Func, f *Func, fromPkg string) string {
	var hops []string
	for cur := f; cur != nil; cur = parent[cur] {
		hops = append(hops, cur.DisplayFrom(fromPkg))
		if parent[cur] == nil {
			break
		}
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	if len(hops) > 6 {
		hops = append(append(hops[:3:3], "…"), hops[len(hops)-2:]...)
	}
	return strings.Join(hops, " → ")
}
