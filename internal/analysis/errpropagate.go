package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errpropagate forbids discarding errors from constructors (module-local
// functions named New…), from Attach methods and from Commit/Rollback
// paths anywhere under internal/. The repo's constructors return errors
// precisely so that a bad geometry or configuration fails loudly at
// wiring time (the tlb and damon constructors grew error returns for
// this); a design whose Attach error vanishes leaves a VM unmanaged
// while the run reports it managed; and a transactional migration whose
// Commit/Rollback error vanishes silently corrupts the frame-accounting
// invariants the chaos ladder checks at runtime.
//
// Flagged forms: an expression statement dropping all results, a blank
// identifier in the error position of an assignment, and go/defer
// statements whose call's error is unobservable. Intentional drops carry
// //lint:allow errpropagate <reason>.
var Errpropagate = &Analyzer{
	Name: "errpropagate",
	Doc:  "forbid discarded errors from constructors, Attach and Commit/Rollback paths under internal/",
	Run:  runErrpropagate,
}

func runErrpropagate(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		if !strings.Contains(pkg.Path, "/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
						checkDiscardedCall(pass, pkg, call, "")
					}
				case *ast.DeferStmt:
					checkDiscardedCall(pass, pkg, n.Call, "defer ")
				case *ast.GoStmt:
					checkDiscardedCall(pass, pkg, n.Call, "go ")
				case *ast.AssignStmt:
					checkBlankError(pass, pkg, n)
				}
				return true
			})
		}
	}
	return nil
}

// guardedCallee returns the callee and a display name when the call is
// one whose error must be handled: a module-local constructor (New…) or
// any Attach/Commit/Rollback method, with an error among its results.
func guardedCallee(pkg *Package, call *ast.CallExpr) (*types.Func, string, int) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, "", -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, "", -1
	}
	errIdx := errorResultIndex(sig)
	if errIdx < 0 {
		return nil, "", -1
	}
	name := fn.Name()
	switch {
	case name == "Attach" || name == "Commit" || name == "Rollback":
	case strings.HasPrefix(name, "New") && sameModule(pkg.Path, fn.Pkg().Path()):
	default:
		return nil, "", -1
	}
	display := fn.Pkg().Name() + "." + name
	if recv := sig.Recv(); recv != nil {
		display = recvTypeName(recv.Type()) + "." + name
	}
	return fn, display, errIdx
}

// sameModule reports whether two import paths share a first segment
// (both inside this module).
func sameModule(a, b string) bool {
	as, _, _ := strings.Cut(a, "/")
	bs, _, _ := strings.Cut(b, "/")
	return as == bs
}

// checkDiscardedCall flags a statement that drops every result of a
// guarded call.
func checkDiscardedCall(pass *Pass, pkg *Package, call *ast.CallExpr, how string) {
	if _, display, _ := guardedCallee(pkg, call); display != "" {
		pass.Reportf(call.Pos(), "%sdiscards the error from %s: constructor, Attach and Commit/Rollback errors must be handled", how, display)
	}
}

// checkBlankError flags `x, _ := NewThing()` style assignments where the
// blank identifier lands on the guarded call's error result.
func checkBlankError(pass *Pass, pkg *Package, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	_, display, errIdx := guardedCallee(pkg, call)
	if display == "" || errIdx >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(id.Pos(), "blank identifier discards the error from %s: constructor, Attach and Commit/Rollback errors must be handled", display)
	}
}
