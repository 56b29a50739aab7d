package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// simPackages names the simulation packages (final path segment under
// internal/) where determinism is load-bearing: any nondeterminism here
// breaks byte-identical experiment reports and seeded reproducibility.
var simPackages = map[string]bool{
	"sim":         true,
	"engine":      true,
	"tlb":         true,
	"pagetable":   true,
	"pebs":        true,
	"tmm":         true,
	"balloon":     true,
	"hypervisor":  true,
	"damon":       true,
	"guestos":     true,
	"virtio":      true,
	"workload":    true,
	"fault":       true,
	"experiments": true,
	"explore":     true,
	"core":        true,
	"mem":         true,
	"track":       true,
	"policy":      true,
	"daemon":      true,
}

// IsSimulationPackage reports whether the import path names a package
// whose behavior must be bit-for-bit deterministic. internal/simrand is
// deliberately absent: it is the one place allowed to own a PRNG.
func IsSimulationPackage(path string) bool {
	_, rest, ok := strings.Cut(path, "/internal/")
	if !ok {
		return false
	}
	seg, _, _ := strings.Cut(rest, "/")
	return simPackages[seg]
}

// Simdet forbids nondeterministic inputs in simulation packages:
// wall-clock reads (time.Now/Since/Until), ambient randomness
// (math/rand imports — randomness must flow through internal/simrand),
// environment reads (os.Getenv and friends), and map iteration whose
// body has side effects or early exits, which makes behavior depend on
// Go's randomized map order.
//
// Pure-aggregation map loops (folding into locals, building a key slice
// for sorting, counting) are allowed; a loop is flagged as soon as it
// calls a non-builtin function, returns, or breaks, because from there
// map order leaks into simulation state. Legitimate wall-clock uses
// (e.g. measuring host-side elapsed time for a progress line) carry a
// //lint:allow simdet <reason> suppression.
var Simdet = &Analyzer{
	Name: "simdet",
	Doc:  "forbid wall clocks, ambient randomness, env reads, and order-dependent map iteration in simulation packages",
	Run:  runSimdet,
}

func runSimdet(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		if IsSimulationPackage(pkg.Path) {
			simdetPackage(pass, pkg)
		}
	}
	return nil
}

func simdetPackage(pass *Pass, pkg *Package) {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in simulation package: all randomness must flow through internal/simrand", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pkg.Info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				name := fn.Name()
				switch fn.Pkg().Path() {
				case "time":
					if name == "Now" || name == "Since" || name == "Until" {
						pass.Reportf(n.Pos(), "time.%s in simulation package: simulated time must come from the event engine", name)
					}
				case "os":
					if name == "Getenv" || name == "LookupEnv" || name == "Environ" {
						pass.Reportf(n.Pos(), "os.%s in simulation package: environment reads make runs machine-dependent", name)
					}
				}
			case *ast.RangeStmt:
				if isMapType(pkg.Info.TypeOf(n.X)) {
					s := &escapeScanner{pkg: pkg}
					s.scanStmt(n.Body, true)
					if s.found != "" {
						pass.Reportf(n.Pos(), "map iteration %s: behavior depends on randomized map order (iterate a sorted key slice instead)", s.found)
					}
				}
			}
			return true
		})
	}
}

// escapeScanner walks a map-range body looking for constructs through
// which iteration order escapes into program behavior: early exits and
// calls to non-builtin functions. Only the first finding is kept, so a
// loop produces one diagnostic and one suppression covers it.
type escapeScanner struct {
	pkg   *Package
	found string
}

// scanStmt visits a statement. breakable reports whether an unlabeled
// break at this position would terminate the map range itself (nested
// for/range/switch/select statements re-bind break).
func (s *escapeScanner) scanStmt(n ast.Stmt, breakable bool) {
	if n == nil || s.found != "" {
		return
	}
	switch n := n.(type) {
	case *ast.ReturnStmt:
		s.found = "returns early"
	case *ast.BranchStmt:
		switch {
		case n.Tok == token.GOTO:
			s.found = "jumps out"
		case n.Tok == token.BREAK && (breakable || n.Label != nil):
			// A labeled break targets an enclosing statement, so it always
			// ends the map range (or something outside it) early.
			s.found = "breaks early"
		}
	case *ast.BlockStmt:
		for _, st := range n.List {
			s.scanStmt(st, breakable)
		}
	case *ast.IfStmt:
		s.scanStmt(n.Init, false)
		s.scanExpr(n.Cond)
		s.scanStmt(n.Body, breakable)
		s.scanStmt(n.Else, breakable)
	case *ast.ForStmt:
		s.scanStmt(n.Init, false)
		s.scanExpr(n.Cond)
		s.scanStmt(n.Post, false)
		s.scanStmt(n.Body, false)
	case *ast.RangeStmt:
		s.scanExpr(n.X)
		s.scanStmt(n.Body, false)
	case *ast.SwitchStmt:
		s.scanStmt(n.Init, false)
		s.scanExpr(n.Tag)
		for _, st := range n.Body.List {
			cc := st.(*ast.CaseClause)
			for _, e := range cc.List {
				s.scanExpr(e)
			}
			for _, bs := range cc.Body {
				s.scanStmt(bs, false)
			}
		}
	case *ast.TypeSwitchStmt:
		s.scanStmt(n.Init, false)
		s.scanStmt(n.Assign, false)
		for _, st := range n.Body.List {
			cc := st.(*ast.CaseClause)
			for _, bs := range cc.Body {
				s.scanStmt(bs, false)
			}
		}
	case *ast.SelectStmt:
		for _, st := range n.Body.List {
			cc := st.(*ast.CommClause)
			s.scanStmt(cc.Comm, false)
			for _, bs := range cc.Body {
				s.scanStmt(bs, false)
			}
		}
	case *ast.LabeledStmt:
		s.scanStmt(n.Stmt, breakable)
	case *ast.ExprStmt:
		s.scanExpr(n.X)
	case *ast.SendStmt:
		s.scanExpr(n.Chan)
		s.scanExpr(n.Value)
	case *ast.IncDecStmt:
		s.scanExpr(n.X)
	case *ast.AssignStmt:
		for _, e := range n.Lhs {
			s.scanExpr(e)
		}
		for _, e := range n.Rhs {
			s.scanExpr(e)
		}
	case *ast.DeclStmt:
		ast.Inspect(n, func(inner ast.Node) bool {
			if e, ok := inner.(ast.Expr); ok {
				s.scanExpr(e)
				return false
			}
			return s.found == ""
		})
	case *ast.DeferStmt:
		// Deferred work runs after the loop, but its arguments are
		// evaluated per-iteration and the calls run in stacked order.
		s.found = "defers per-iteration work"
	case *ast.GoStmt:
		s.found = "launches goroutines"
	case *ast.EmptyStmt:
	}
}

// scanExpr flags calls to non-builtin functions inside an expression.
// Closure literals are inert until called, so their bodies are skipped.
func (s *escapeScanner) scanExpr(n ast.Expr) {
	if n == nil || s.found != "" {
		return
	}
	ast.Inspect(n, func(inner ast.Node) bool {
		if s.found != "" {
			return false
		}
		switch inner := inner.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if calleeBuiltin(s.pkg.Info, inner) == "" && !isConversion(s.pkg.Info, inner) {
				s.found = "calls " + callName(s.pkg, inner)
				return false
			}
		}
		return true
	})
}

// callName renders a call target for diagnostics.
func callName(pkg *Package, call *ast.CallExpr) string {
	if fn := calleeFunc(pkg.Info, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() != pkg.Path {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "a function value"
}
