package analysis

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the static callee of a call, or nil for builtins,
// conversions, and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeBuiltin returns the name of the builtin being called ("append",
// "panic", …), or "".
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isInterfaceType reports whether t's underlying type is a non-empty or
// empty interface (excluding type parameters).
func isInterfaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// recvTypeName names a method's receiver type without its pointer:
// "VM" for both VM and *VM.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

var errorType = types.Universe.Lookup("error").Type()

// errorResultIndex returns the index of sig's error result, or -1.
func errorResultIndex(sig *types.Signature) int {
	res := sig.Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if types.Identical(res.At(i).Type(), errorType) {
			return i
		}
	}
	return -1
}
