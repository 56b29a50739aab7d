package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Floatfold forbids float accumulation in nondeterministic order under
// internal/: because float addition and multiplication are not
// associative, folding values in map-iteration order or in worker
// completion order produces bit-different results across runs and
// -parallel widths — exactly the corruption the byte-identical-report
// contract exists to catch, and one that simdet/mapiter cannot see
// (the loop may be a "pure aggregation" and never touch a sink).
//
// A finding is a += / -= / *= / /= (or x = x op y) whose target is a
// float declared outside the region, where the region is one of:
//
//   - the body of a range over a map;
//   - a function literal passed to a call named FanOut or runIndexed
//     (the experiment runner's collection callbacks);
//   - a function literal launched with go.
//
// Keyed writes m[k] op= v where k is the range key are exempt inside
// map ranges: each key is written once per iteration, so iteration
// order cannot change the fold. The fix is mechanical: collect into a
// slice or keyed map, sort, then fold — see experiments.geoMean.
var Floatfold = &Analyzer{
	Name: "floatfold",
	Doc:  "forbid float accumulation in nondeterministic order (map ranges, fan-out callbacks) under internal/",
	Run:  runFloatfold,
}

// floatfoldCollectors names the call targets whose function-literal
// arguments run concurrently and complete in nondeterministic order.
var floatfoldCollectors = map[string]bool{"FanOut": true, "runIndexed": true}

// floatRegion is one span whose iteration/completion order is
// nondeterministic.
type floatRegion struct {
	lo, hi token.Pos
	desc   string
	keyObj types.Object // map-range key ident, for the keyed-write exemption
	valObj types.Object // map-range value ident: per-iteration, order-free
}

func runFloatfold(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		if strings.Contains(pkg.Path, "/internal/") {
			floatfoldPackage(pass, pkg)
		}
	}
	return nil
}

func floatfoldPackage(pass *Pass, pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		var regions []floatRegion
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				r := floatRegion{lo: n.Body.Pos(), hi: n.Body.End(), desc: "range over map"}
				if kid, ok := n.Key.(*ast.Ident); ok {
					r.keyObj = info.ObjectOf(kid)
				}
				if vid, ok := n.Value.(*ast.Ident); ok {
					r.valObj = info.ObjectOf(vid)
				}
				regions = append(regions, r)
			case *ast.CallExpr:
				name := ""
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				}
				if !floatfoldCollectors[name] {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						regions = append(regions, floatRegion{lo: lit.Body.Pos(), hi: lit.Body.End(), desc: name + " callback"})
					}
				}
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					regions = append(regions, floatRegion{lo: lit.Body.Pos(), hi: lit.Body.End(), desc: "goroutine"})
				}
			}
			return true
		})
		if len(regions) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			reg := innermostRegion(regions, as.Pos())
			if reg == nil {
				return true
			}
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				checkFoldTarget(pass, info, reg, as.Lhs[0], as.Pos())
			case token.ASSIGN:
				if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				be, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
				if !ok {
					return true
				}
				switch be.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
				default:
					return true
				}
				lhs := types.ExprString(as.Lhs[0])
				if types.ExprString(be.X) == lhs || types.ExprString(be.Y) == lhs {
					checkFoldTarget(pass, info, reg, as.Lhs[0], as.Pos())
				}
			}
			return true
		})
	}
}

// innermostRegion returns the smallest region containing pos, or nil.
func innermostRegion(regions []floatRegion, pos token.Pos) *floatRegion {
	var best *floatRegion
	for i := range regions {
		r := &regions[i]
		if pos < r.lo || pos >= r.hi {
			continue
		}
		if best == nil || (r.lo > best.lo) {
			best = r
		}
	}
	return best
}

// checkFoldTarget reports if lhs is a float accumulation target
// declared outside the region.
func checkFoldTarget(pass *Pass, info *types.Info, reg *floatRegion, lhs ast.Expr, pos token.Pos) {
	t := info.TypeOf(lhs)
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	// Keyed-write exemption: m[k] op= v with k the range key.
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && reg.keyObj != nil {
		if kid, ok := ast.Unparen(idx.Index).(*ast.Ident); ok && info.ObjectOf(kid) == reg.keyObj {
			return
		}
	}
	root := rootVar(info, lhs)
	if root == nil {
		return
	}
	// The region's own key/value variables are fresh each iteration:
	// mutating them (c *= decay, written back keyed) is order-free.
	if obj := types.Object(root); obj == reg.keyObj || obj == reg.valObj {
		return
	}
	// Declared inside the region: a per-iteration local, deterministic.
	if root.Pos() >= reg.lo && root.Pos() < reg.hi {
		return
	}
	pass.Reportf(pos, "float accumulation into %s inside %s folds in nondeterministic order; collect and sort, or fold a canonical-order slice", types.ExprString(lhs), reg.desc)
}
