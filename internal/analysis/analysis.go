// Package analysis is demeter's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// driver model on top of the standard library's go/ast and go/types.
//
// The repo's core contracts — byte-identical experiment reports at any
// -parallel setting, a 0 allocs/op access fast path, all randomness
// flowing through internal/simrand — are runtime-tested elsewhere; the
// analyzers in this package turn them into compile-time facts:
//
//   - simdet:       no wall clocks, ambient randomness, environment reads,
//     or order-dependent map iteration in simulation packages
//   - mapiter:      no map iteration feeding report/journal/JSON output
//     without an intervening sort
//   - hotpath:      functions annotated //demeter:hotpath contain no
//     allocating constructs, and neither does anything in their
//     in-module call tree (stopped at //demeter:coldpath)
//   - errpropagate: no discarded errors from constructors or
//     Commit/Rollback paths under internal/
//   - lockorder:    no inconsistent mutex acquisition order, re-entry,
//     or locks held across blocking operations under internal/
//   - crossshard:   no package-level mutable state in simulation
//     packages reachable from engine/experiments run paths
//   - floatfold:    no float accumulation in nondeterministic order
//     (map ranges, fan-out collection callbacks) under internal/
//
// Every analyzer has one entry point, Analyzer.Run, called once per
// driver run with a Pass that carries every loaded package and the
// module call graph. The syntactic analyzers (simdet, mapiter,
// errpropagate, floatfold) loop over pass.Pkgs and ask "does this
// statement do X". The state that parallel leaf runs and the serve loop
// share is guarded by flow properties instead — what is held when a
// call happens, what is reachable from a run path — and lockorder,
// crossshard and hotpath's call-tree walk answer them over pass.Graph:
// static calls resolved through go/types object identity, interface
// calls resolved to every in-module implementer via method sets, and a
// per-function control-flow graph (basic blocks over ast.Stmt with
// branch, loop and defer edges) built on first use.
//
// The flow layer's deliberate limits (see DESIGN.md §9):
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
//
// Suppression: a finding is silenced by a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or on the line directly above it. The reason is
// mandatory; an allow without one suppresses nothing. A directive that
// suppresses nothing in the current tree is itself reported as stale
// (analyzer name "staleallow"), so allow-debt cannot accumulate; stale
// directives are only computed for analyzers that actually ran, and a
// partial load (anything narrower than ./...) can miss the finding a
// directive suppresses, so stale enforcement belongs to full-module
// runs like CI and TestRepoIsLintClean. The hotpath analyzer
// additionally keys off //demeter:hotpath annotations in a function's
// doc comment.
//
// The x/tools module is deliberately not imported: the build must work in
// a hermetic environment with only the Go toolchain present, so the
// driver (Load + Run), the call graph and CFG, the fixture harness
// (analysistest) and the multichecker (cmd/demeter-lint) are all local
// code.
package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// StaleName is the pseudo-analyzer name carried by stale-suppression
// diagnostics. It is not a real analyzer: stale findings cannot
// themselves be suppressed with //lint:allow.
const StaleName = "staleallow"

// Analyzer describes one static check. It mirrors the x/tools analysis
// API shape so the checks could be ported to a real multichecker wholesale
// if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> suppressions.
	Name string
	// Doc is a one-paragraph description, shown by demeter-lint -list.
	Doc string
	// Run performs the check once over every loaded package and reports
	// findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of a whole driver run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs holds every loaded package, in load order.
	Pkgs []*Package
	// Graph is the call graph over Pkgs.
	Graph *CallGraph

	allow  *allowIndex
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Result is one driver run's findings: Diags from the analyzers, Stale
// for //lint:allow directives that suppressed nothing. Both sorted by
// position.
type Result struct {
	Diags []Diagnostic
	Stale []Diagnostic
}

// Reportf reports a finding at pos unless a //lint:allow suppression
// covers its line. The suppression index spans every loaded package.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.suppress(position, p.Analyzer.Name) {
		return
	}
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: position, Message: fmt.Sprintf(format, args...)})
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowDirective is one //lint:allow comment. A directive covers its
// own line and the next one; when either suppresses a finding the
// directive is used, otherwise it is stale.
type allowDirective struct {
	analyzer string
	pos      token.Position
	used     bool
}

// allowIndex is the module-wide suppression index, shared by every
// analyzer in a run so stale detection sees all usage.
type allowIndex struct {
	byKey map[allowKey]*allowDirective
	// all holds every directive in first-seen order for the stale scan.
	all []*allowDirective
}

var allowRE = regexp.MustCompile(`^lint:allow\s+([a-z][a-z0-9_]*)\s+(\S.*)$`)

// parseAllow matches one comment's text ("//lint:allow simdet reason")
// against the directive form and returns the analyzer it names and its
// reason. ok is false for anything else, including a directive with no
// reason.
func parseAllow(comment string) (analyzer, reason string, ok bool) {
	m := allowRE.FindStringSubmatch(strings.TrimSpace(strings.TrimPrefix(comment, "//")))
	if m == nil {
		return "", "", false
	}
	return m[1], m[2], true
}

// buildAllowIndex scans every file's comments for //lint:allow
// directives. Each well-formed directive (analyzer name plus a
// non-empty reason) suppresses that analyzer on the comment's own line
// and on the line immediately after it, which covers both the trailing
// form
//
//	foo()          //lint:allow simdet wall clock feeds only the log line
//
// and the preceding-line form
//
//	//lint:allow simdet wall clock feeds only the log line
//	foo()
func buildAllowIndex(fset *token.FileSet, pkgs []*Package) *allowIndex {
	idx := &allowIndex{byKey: map[allowKey]*allowDirective{}}
	seenFile := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			if seenFile[name] {
				continue
			}
			seenFile[name] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					analyzer, _, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Slash)
					d := &allowDirective{analyzer: analyzer, pos: pos}
					idx.all = append(idx.all, d)
					idx.byKey[allowKey{file: pos.Filename, line: pos.Line, analyzer: analyzer}] = d
					idx.byKey[allowKey{file: pos.Filename, line: pos.Line + 1, analyzer: analyzer}] = d
				}
			}
		}
	}
	return idx
}

// suppress reports whether a directive covers the position, marking it
// used.
func (idx *allowIndex) suppress(pos token.Position, analyzer string) bool {
	d := idx.byKey[allowKey{file: pos.Filename, line: pos.Line, analyzer: analyzer}]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// stale returns a diagnostic for every directive naming one of the run
// analyzers that suppressed nothing.
func (idx *allowIndex) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range idx.all {
		if d.used || !ran[d.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: StaleName,
			Pos:      d.pos,
			Message:  fmt.Sprintf("stale //lint:allow %s directive: it suppresses no current finding", d.analyzer),
		})
	}
	return out
}

// Run applies each analyzer once to the loaded packages and returns
// the findings plus any stale suppressions, each sorted by position.
// An analyzer error (not a finding) aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) (Result, error) {
	var res Result
	fset := token.NewFileSet()
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	graph := buildCallGraph(pkgs)
	allow := buildAllowIndex(fset, pkgs)
	report := func(d Diagnostic) { res.Diags = append(res.Diags, d) }

	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{Analyzer: a, Fset: fset, Pkgs: pkgs, Graph: graph, allow: allow, report: report}
		if err := a.Run(pass); err != nil {
			return Result{}, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	res.Stale = allow.stale(ran)
	sortDiags(res.Diags)
	sortDiags(res.Stale)
	return res, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{Simdet, Mapiter, Hotpath, Errpropagate, Lockorder, Crossshard, Floatfold}
}

// ByName resolves a comma-separated analyzer list ("simdet,hotpath").
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
