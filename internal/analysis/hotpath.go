package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotpathAnnotation marks a function as part of the simulator's access
// fast path when it appears in the function's doc comment:
//
//	//demeter:hotpath
//	func (vm *VM) Access(gva uint64, write bool) sim.Duration { … }
//
// Annotated functions are the same set a warm TestAccessPathZeroAlloc
// loop executes, so "this function must not allocate" is checked twice:
// statically here, dynamically by the alloc counter.
const HotpathAnnotation = "demeter:hotpath"

// ColdpathAnnotation marks a function as a deliberate slow path:
//
//	//demeter:coldpath
//	func (vm *VM) refillQueue() { … }
//
// The hotpath analyzer's call-tree walk stops at coldpath functions —
// they are reached from the fast path only on miss/fault/arming edges
// where allocation is accepted — without exempting the hot caller
// itself.
const ColdpathAnnotation = "demeter:coldpath"

// Hotpath forbids allocating constructs inside functions annotated
// //demeter:hotpath and, interprocedurally, inside every in-module
// function their call trees reach: fmt calls, closure literals,
// map/slice composite literals, &composite literals, make/new, append,
// conversions that box into an interface (explicit or via argument
// passing), string concatenation, string<->[]byte conversions, map
// writes, defer, and go.
//
// The call tree is walked through static calls and interface calls
// resolved to in-module implementers, without requiring per-callee
// annotations; findings in un-annotated callees carry the call chain
// from the nearest annotated root. The walk stops at functions
// annotated //demeter:coldpath (deliberate slow paths) and does not
// follow calls inside panic arguments or closure bodies (the closure
// literal itself is already flagged where it appears in hot code).
//
// Arguments of panic calls are exempt: a hot-path function that dies on
// corruption may format its last words, since that path never returns.
// Deliberate allocations (e.g. appending to a buffer preallocated at
// arm time) carry //lint:allow hotpath <reason>.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocating constructs in //demeter:hotpath functions and their whole in-module call tree (stopped at //demeter:coldpath)",
	Run:  runHotpath,
}

func hasAnnotation(fd *ast.FuncDecl, annotation string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == annotation || strings.HasPrefix(text, annotation+" ") {
			return true
		}
	}
	return false
}

// IsHotpathAnnotated reports whether a function declaration carries the
// //demeter:hotpath annotation.
func IsHotpathAnnotated(fd *ast.FuncDecl) bool { return hasAnnotation(fd, HotpathAnnotation) }

// IsColdpathAnnotated reports whether a function declaration carries
// the //demeter:coldpath annotation.
func IsColdpathAnnotated(fd *ast.FuncDecl) bool { return hasAnnotation(fd, ColdpathAnnotation) }

func runHotpath(pass *Pass) error {
	var roots []*Func
	for _, f := range pass.Graph.Funcs() {
		if IsHotpathAnnotated(f.Decl) {
			roots = append(roots, f)
		}
	}
	// The parent pointers let a finding in an un-annotated callee name a
	// shortest chain from an annotated root. Panic-argument calls are
	// the dying-words path; closure-body calls only run if the closure
	// does, and the closure literal itself is flagged in hot code;
	// coldpath functions are deliberate slow-path boundaries.
	parent := pass.Graph.Reachable(roots, func(call *Call, callee *Func) bool {
		return !call.InPanicArg && !call.InFuncLit && !IsColdpathAnnotated(callee.Decl)
	})
	for _, f := range pass.Graph.Funcs() {
		if _, in := parent[f]; !in {
			continue
		}
		suffix := ""
		if !IsHotpathAnnotated(f.Decl) {
			suffix = fmt.Sprintf(" (hot-path tree: %s)", Chain(parent, f, f.Pkg.Path))
		}
		scan := &hotpathScan{
			info:   f.Pkg.Info,
			fname:  f.Name(),
			suffix: suffix,
			pass:   pass,
		}
		scan.check(f.Decl)
	}
	return nil
}

// hotpathScan checks one function body. fname names the function in
// messages; suffix carries the call chain for un-annotated tree
// members.
type hotpathScan struct {
	info   *types.Info
	fname  string
	suffix string
	pass   *Pass
}

func (s *hotpathScan) reportf(pos token.Pos, format string, args ...any) {
	s.pass.Reportf(pos, format+"%s", append(args, s.suffix)...)
}

func (s *hotpathScan) check(fd *ast.FuncDecl) {
	info := s.info
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.reportf(n.Pos(), "closure literal in hot path %s allocates", s.fname)
			return false
		case *ast.DeferStmt:
			s.reportf(n.Pos(), "defer in hot path %s allocates and delays work", s.fname)
			return false
		case *ast.GoStmt:
			s.reportf(n.Pos(), "goroutine launch in hot path %s allocates", s.fname)
			return false
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					s.reportf(n.Pos(), "map literal in hot path %s allocates", s.fname)
				case *types.Slice:
					s.reportf(n.Pos(), "slice literal in hot path %s allocates", s.fname)
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					s.reportf(n.Pos(), "&composite literal in hot path %s heap-allocates", s.fname)
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						s.reportf(n.Pos(), "string concatenation in hot path %s allocates", s.fname)
					}
				}
			}
			return true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(info.TypeOf(idx.X)) {
					s.reportf(lhs.Pos(), "map write in hot path %s may allocate", s.fname)
				}
			}
			return true
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapType(info.TypeOf(idx.X)) {
				s.reportf(n.Pos(), "map write in hot path %s may allocate", s.fname)
			}
			return true
		case *ast.CallExpr:
			return s.visitCall(n)
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// visitCall checks one call expression; the return value tells
// ast.Inspect whether to descend into the call's children.
func (s *hotpathScan) visitCall(call *ast.CallExpr) bool {
	info := s.info
	if b := calleeBuiltin(info, call); b != "" {
		switch b {
		case "panic":
			// Dying words: the panic path never returns, so formatting the
			// message there cannot perturb steady-state allocation.
			return false
		case "append":
			s.reportf(call.Pos(), "append in hot path %s may grow its backing array (preallocate, or lint:allow with the capacity argument)", s.fname)
		case "make", "new":
			s.reportf(call.Pos(), "%s in hot path %s allocates", b, s.fname)
		}
		return true
	}
	if isConversion(info, call) {
		target := info.TypeOf(call)
		if target == nil {
			return true
		}
		if isInterfaceType(target) {
			s.reportf(call.Pos(), "conversion to interface in hot path %s boxes its operand", s.fname)
			return true
		}
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if isStringSliceConv(from, target) {
				s.reportf(call.Pos(), "string/slice conversion in hot path %s copies and allocates", s.fname)
			}
		}
		return true
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		s.reportf(call.Pos(), "fmt.%s in hot path %s allocates", fn.Name(), s.fname)
		return true
	}
	// Implicit boxing: a concrete argument passed for an interface
	// parameter allocates. The callee's signature covers static calls,
	// method calls, and calls through function values alike.
	sigType := info.TypeOf(call.Fun)
	if sigType == nil {
		return true
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				if i == params.Len()-1 {
					pt = params.At(params.Len() - 1).Type()
				}
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !isInterfaceType(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isInterfaceType(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		s.reportf(arg.Pos(), "argument boxes %s into interface %s in hot path %s", at, pt, s.fname)
	}
	return true
}

// isStringSliceConv reports a conversion between string and []byte/[]rune.
func isStringSliceConv(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(from) && isByteSlice(to)) || (isByteSlice(from) && isStr(to))
}
