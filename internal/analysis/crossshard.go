package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Crossshard inventories the package-level mutable state that stands
// between the engine and per-host sharding: a package-level variable in
// a simulation package is reported when (a) some function other than
// func init() writes it — assignment, ++/--, delete, taking its
// address, or calling a pointer-receiver method on it (Lock, Store,
// Add, …) — and (b) it is referenced by a function reachable, over the
// module call graph, from the run paths (every function in
// internal/engine and internal/experiments).
//
// Tables seeded at init time and only read afterwards are what the
// //lint:allow crossshard escape hatch is for; the directive's
// mandatory reason documents why the state is shard-safe (read-only,
// atomic by design, or serialized above the engine). The analysis is
// name-based like the rest of the suite: state reached only through
// copied pointers is invisible, and writes inside helpers called from
// init still count as writes (context-insensitive), which errs toward
// reporting.
var Crossshard = &Analyzer{
	Name: "crossshard",
	Doc:  "forbid package-level mutable state in simulation packages reachable from engine/experiments run paths",
	Run:  runCrossshard,
}

// crossshardEntrySuffixes marks the packages whose functions are the
// run paths sharding must make safe.
var crossshardEntrySuffixes = []string{"/internal/engine", "/internal/experiments"}

func runCrossshard(pass *Pass) error {
	mod := pass.Graph
	var entries []*Func
	for _, f := range mod.Funcs() {
		for _, suf := range crossshardEntrySuffixes {
			if strings.HasSuffix(f.Pkg.Path, suf) {
				entries = append(entries, f)
				break
			}
		}
	}
	if len(entries) == 0 {
		return nil
	}
	reach := mod.Reachable(entries, nil)

	// writers and readers of every package-level var, module-wide, in
	// deterministic function order.
	writers := map[*types.Var][]*Func{}
	readers := map[*types.Var][]*Func{}
	for _, f := range mod.Funcs() {
		isInit := f.Decl.Recv == nil && f.Decl.Name.Name == "init"
		seenW := map[*types.Var]bool{}
		seenR := map[*types.Var]bool{}
		scanVarAccesses(f, func(v *types.Var, write bool) {
			if write && !isInit && !seenW[v] {
				seenW[v] = true
				writers[v] = append(writers[v], f)
			}
			if !seenR[v] {
				seenR[v] = true
				readers[v] = append(readers[v], f)
			}
		})
	}

	// Report mutable vars of simulation packages referenced from the
	// reachable set, at the var's declaration, in package order.
	for _, pkg := range mod.Pkgs {
		if !IsSimulationPackage(pkg.Path) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok {
				continue
			}
			ws := writers[v]
			if len(ws) == 0 {
				continue
			}
			var via *Func
			for _, r := range readers[v] {
				if _, reachable := reach[r]; reachable {
					via = r
					break
				}
			}
			if via == nil {
				continue
			}
			pass.Reportf(v.Pos(),
				"package-level mutable state %s (written by %s) is reachable from engine/experiments run paths via %s; shards cannot run concurrently over it",
				v.Name(), ws[0].DisplayFrom(pkg.Path), Chain(reach, via, pkg.Path))
		}
	}
	return nil
}

// scanVarAccesses walks f's body and reports each package-level
// variable access as a read or write. Writes: assignment or ++/-- with
// the var at the root of the left-hand side, delete() on it, its
// address taken, or a pointer-receiver method called on it (or on a
// field chain rooted at it).
func scanVarAccesses(f *Func, visit func(v *types.Var, write bool)) {
	info := f.Pkg.Info
	pkgLevel := func(e ast.Expr) *types.Var {
		v := rootVar(info, e)
		if v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v
		}
		return nil
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := pkgLevel(lhs); v != nil {
					visit(v, true)
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevel(n.X); v != nil {
				visit(v, true)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := pkgLevel(n.X); v != nil {
					visit(v, true)
				}
			}
		case *ast.CallExpr:
			if b := calleeBuiltin(info, n); b == "delete" && len(n.Args) > 0 {
				if v := pkgLevel(n.Args[0]); v != nil {
					visit(v, true)
				}
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
							if v := pkgLevel(sel.X); v != nil {
								visit(v, true)
							}
						}
					}
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				visit(v, false)
			}
		}
		return true
	})
}

// rootVar resolves the variable at the root of a selector/index chain:
// x, x.f, x[i].f, pkg.x.f all resolve to x. Dereferences through
// pointers stop resolution (aliasing limit).
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			if xid, ok := ast.Unparen(v.X).(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(xid).(*types.PkgName); isPkg {
					obj, _ := info.ObjectOf(v.Sel).(*types.Var)
					return obj
				}
			}
			e = ast.Unparen(v.X)
		case *ast.IndexExpr:
			e = ast.Unparen(v.X)
		case *ast.Ident:
			obj, _ := info.ObjectOf(v).(*types.Var)
			return obj
		default:
			return nil
		}
	}
}
