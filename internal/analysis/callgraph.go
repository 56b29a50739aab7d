package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Func is one module function or method with a body.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
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

// CallGraph is the call graph over every loaded package.
type CallGraph struct {
	// Pkgs holds the loaded packages sorted by import path.
	Pkgs  []*Package
	funcs map[*types.Func]*Func
	// sorted holds every Func ordered by source position, the canonical
	// iteration order for deterministic reports.
	sorted []*Func
}

// buildCallGraph constructs the module call graph. Packages are sorted
// by import path; functions by source position; call targets by
// position — every downstream iteration is deterministic.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Pkgs: append([]*Package(nil), pkgs...)}
	sort.Slice(g.Pkgs, func(i, j int) bool { return g.Pkgs[i].Path < g.Pkgs[j].Path })

	g.funcs = make(map[*types.Func]*Func)
	for _, pkg := range g.Pkgs {
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
				g.funcs[obj] = &Func{Obj: obj, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, fn := range g.funcs {
		g.sorted = append(g.sorted, fn)
	}
	sort.Slice(g.sorted, func(i, j int) bool { return g.sorted[i].Decl.Pos() < g.sorted[j].Decl.Pos() })
	for _, fn := range g.sorted {
		g.resolveCalls(fn)
	}
	return g
}

// Funcs returns every module function in source-position order.
func (g *CallGraph) Funcs() []*Func { return g.sorted }

// CFG returns the function's control-flow graph, built on first use.
// CallGraph methods are not safe for concurrent use; the driver runs
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

// posRange is a half-open source span.
type posRange struct{ lo, hi token.Pos }

func inRanges(ranges []posRange, p token.Pos) bool {
	for _, r := range ranges {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// resolveCalls collects every call site in fn's body in source order,
// marks its lexical context (inside a closure body, inside a panic
// argument list), and resolves the targets static information can
// reach. Builtins and conversions are not calls in the graph.
func (g *CallGraph) resolveCalls(fn *Func) {
	info := fn.Pkg.Info
	var litRanges, panicRanges []posRange
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litRanges = append(litRanges, posRange{n.Body.Pos(), n.Body.End()})
		case *ast.CallExpr:
			if calleeBuiltin(info, n) == "panic" && len(n.Args) > 0 {
				panicRanges = append(panicRanges, posRange{n.Args[0].Pos(), n.Rparen})
			}
		}
		return true
	})
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		site, ok := n.(*ast.CallExpr)
		if !ok || isConversion(info, site) || calleeBuiltin(info, site) != "" {
			return true
		}
		fn.Calls = append(fn.Calls, g.resolveCall(info, site, inRanges(litRanges, site.Pos()), inRanges(panicRanges, site.Pos())))
		return true
	})
}

// resolveCall builds the Call record for one site.
func (g *CallGraph) resolveCall(info *types.Info, call *ast.CallExpr, inFuncLit, inPanicArg bool) *Call {
	c := &Call{Site: call, InFuncLit: inFuncLit, InPanicArg: inPanicArg}
	obj := calleeFunc(info, call)
	if obj == nil {
		return c // function value: unresolved
	}
	if sig, ok := obj.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			c.Interface = true
			c.Callees = g.implementers(recv.Type(), obj)
			return c
		}
	}
	if target := g.funcs[obj]; target != nil {
		c.Callees = []*Func{target}
	}
	return c
}

// implementers returns the in-module methods that a dynamic call to
// method on iface can dispatch to: for every named type declared in a
// loaded package whose pointer or value method set satisfies the
// interface, the concrete method with that name. Sorted by position.
func (g *CallGraph) implementers(iface types.Type, method *types.Func) []*Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Func
	seen := map[*Func]bool{}
	for _, pkg := range g.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			recv := types.Type(named)
			if !types.Implements(named, it) {
				if !types.Implements(types.NewPointer(named), it) {
					continue
				}
				recv = types.NewPointer(named)
			}
			sel := types.NewMethodSet(recv).Lookup(method.Pkg(), method.Name())
			if sel == nil {
				continue
			}
			obj, _ := sel.Obj().(*types.Func)
			if target := g.funcs[obj]; target != nil && !seen[target] {
				seen[target] = true
				out = append(out, target)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// Reachable computes the functions reachable from entries over the call
// edges that follow admits (every edge when follow is nil), in
// deterministic BFS order. The returned map carries the BFS parent of
// each reached function (entries map to nil), from which Chain
// reconstructs a shortest call path.
func (g *CallGraph) Reachable(entries []*Func, follow func(call *Call, callee *Func) bool) map[*Func]*Func {
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
				if _, seen := parent[callee]; seen || (follow != nil && !follow(call, callee)) {
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
