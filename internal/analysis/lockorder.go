package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"demeter/internal/analysis/flow"
)

// Lockorder tracks sync.Mutex/RWMutex acquisitions along CFG paths and
// propagates held-lock sets through the call graph. It reports, in
// packages under internal/:
//
//   - re-entry: acquiring a lock that may already be held, directly or
//     through a callee (non-reentrant mutexes self-deadlock);
//   - lock-order cycles: two locks acquired in both orders anywhere in
//     the module (the classic AB/BA deadlock), reported once per cycle
//     at its lexically first edge;
//   - locks held across blocking operations: channel sends/receives,
//     select without default, range over a channel, WaitGroup.Wait,
//     Cond.Wait, time.Sleep, or a call whose tree may block.
//
// Lock identity is name-based, not alias-based: a package-level mutex
// is keyed by package path and variable name, a mutex field by its
// defining named type and field path — conflating all instances of a
// type, which is the right granularity for an order discipline and an
// over-approximation for re-entry. Locks reached through copied
// pointers or function values are invisible. The analysis is
// may-hold: branches union at joins, and a deferred Unlock does not
// release (the lock genuinely is held until exit). Closure bodies,
// go statements, defer statements and panic arguments are excluded
// from the synchronous event stream.
var Lockorder = &Analyzer{
	Name:      "lockorder",
	Doc:       "forbid inconsistent mutex acquisition order, re-entry, and locks held across blocking operations under internal/",
	RunModule: runLockorder,
}

// lockKey identifies one lock approximately. id is the identity used
// for set membership and cycle detection; disp is the short form used
// in messages.
type lockKey struct {
	id   string
	disp string
}

const (
	evAcquire = iota
	evRelease
	evBlock
	evCall
)

// lockEvent is one synchronous event in a function body, in AST order.
type lockEvent struct {
	kind int
	key  lockKey // acquire/release
	pos  token.Pos
	desc string     // block: what blocks; call: callee display name
	call *flow.Call // call
}

// lockSummary is a function's transitive effect: the locks its
// synchronous call tree may acquire and whether it may block.
type lockSummary struct {
	acquires map[string]lockKey
	blocks   bool
	blockVia string // first blocking operation, for messages
}

// lockOrderEdge records "from held while to acquired" at pos.
type lockOrderEdge struct {
	from, to lockKey
	pos      token.Position
}

type lockorderState struct {
	pass    *ModulePass
	mod     *flow.Module
	events  map[*flow.Func][]lockEvent              // whole-body events, for summaries
	byNode  map[*flow.Func]map[ast.Node][]lockEvent // per-CFG-node events, for dataflow
	summary map[*flow.Func]*lockSummary
	edges   map[[2]string]lockOrderEdge
}

func runLockorder(pass *ModulePass) error {
	st := &lockorderState{
		pass:    pass,
		mod:     pass.Flow,
		events:  map[*flow.Func][]lockEvent{},
		byNode:  map[*flow.Func]map[ast.Node][]lockEvent{},
		summary: map[*flow.Func]*lockSummary{},
		edges:   map[[2]string]lockOrderEdge{},
	}
	for _, f := range st.mod.Funcs() {
		st.collectEvents(f)
	}
	st.solveSummaries()
	for _, f := range st.mod.Funcs() {
		if strings.Contains(f.Pkg.Path, "/internal/") {
			st.checkFunc(f)
		}
	}
	st.reportCycles()
	return nil
}

// collectEvents extracts the synchronous lock/block/call events of f,
// both as a flat body-order list (for summaries) and grouped by the
// statement or expression node that carries them (for the CFG walk).
func (st *lockorderState) collectEvents(f *flow.Func) {
	skip := exclusionRanges(f)
	comm := selectCommRanges(f)
	callOf := map[*ast.CallExpr]*flow.Call{}
	for _, c := range f.Calls {
		callOf[c.Site] = c
	}
	st.byNode[f] = map[ast.Node][]lockEvent{}
	cfg := f.CFG()
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			evs := st.nodeEvents(f, n, skip, comm, callOf)
			if len(evs) > 0 {
				st.byNode[f][n] = evs
				st.events[f] = append(st.events[f], evs...)
			}
		}
	}
}

// nodeEvents scans one CFG node for events in AST pre-order.
func (st *lockorderState) nodeEvents(f *flow.Func, node ast.Node, skip, comm []posRangeA, callOf map[*ast.CallExpr]*flow.Call) []lockEvent {
	info := f.Pkg.Info
	var evs []lockEvent
	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			// Not synchronous: a closure runs when invoked, a deferred
			// call at exit, a goroutine elsewhere.
			return false
		case *ast.RangeStmt:
			// Header-only CFG node: the body lives in successor blocks.
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					evs = append(evs, lockEvent{kind: evBlock, pos: n.Range, desc: "range over channel"})
				}
			}
			ast.Inspect(n.X, scan)
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				evs = append(evs, lockEvent{kind: evBlock, pos: n.Select, desc: "select without default"})
			}
			return false
		case *ast.SendStmt:
			if !inRangesA(comm, n.Pos()) {
				evs = append(evs, lockEvent{kind: evBlock, pos: n.Arrow, desc: "channel send"})
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inRangesA(comm, n.Pos()) {
				evs = append(evs, lockEvent{kind: evBlock, pos: n.OpPos, desc: "channel receive"})
			}
			return true
		case *ast.CallExpr:
			if inRangesA(skip, n.Pos()) {
				return false
			}
			if b := calleeBuiltin(info, n); b != "" {
				return b != "panic" // dying words exempt
			}
			if op, key, ok := lockMethod(f, n, st.mod.Fset); ok {
				kind := evAcquire
				if op == "Unlock" || op == "RUnlock" {
					kind = evRelease
				}
				evs = append(evs, lockEvent{kind: kind, key: key, pos: n.Pos()})
				return true
			}
			if desc, ok := blockingCall(info, n); ok {
				evs = append(evs, lockEvent{kind: evBlock, pos: n.Pos(), desc: desc})
				return true
			}
			if c := callOf[n]; c != nil && !c.InFuncLit && !c.InPanicArg {
				name := "function value"
				if len(c.Callees) > 0 {
					name = c.Callees[0].DisplayFrom(f.Pkg.Path)
				} else if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					name = sel.Sel.Name
				} else if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					name = id.Name
				}
				evs = append(evs, lockEvent{kind: evCall, pos: n.Pos(), desc: name, call: c})
			}
			return true
		}
		return true
	}
	ast.Inspect(node, scan)
	return evs
}

// posRangeA is a half-open source span (analysis-side twin of the flow
// package's internal type).
type posRangeA struct{ lo, hi token.Pos }

func inRangesA(ranges []posRangeA, p token.Pos) bool {
	for _, r := range ranges {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// exclusionRanges returns the spans of f's body whose events are not
// synchronous with f: closure bodies, defer and go statements, panic
// arguments.
func exclusionRanges(f *flow.Func) []posRangeA {
	var out []posRangeA
	info := f.Pkg.Info
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			out = append(out, posRangeA{n.Body.Pos(), n.Body.End()})
		case *ast.DeferStmt, *ast.GoStmt:
			out = append(out, posRangeA{n.Pos(), n.End()})
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" && len(n.Args) > 0 {
					out = append(out, posRangeA{n.Args[0].Pos(), n.Rparen})
				}
			}
		}
		return true
	})
	return out
}

// selectCommRanges returns the spans of select communication clauses:
// a send or receive there is the select's own arming, not an extra
// blocking operation.
func selectCommRanges(f *flow.Func) []posRangeA {
	var out []posRangeA
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					out = append(out, posRangeA{cc.Comm.Pos(), cc.Comm.End()})
				}
			}
		}
		return true
	})
	return out
}

// lockMethod recognizes a sync.Mutex / sync.RWMutex method call and
// derives the lock's key. Promoted (embedded) methods resolve their
// field path through the type-checker's selection index.
func lockMethod(f *flow.Func, call *ast.CallExpr, fset *token.FileSet) (op string, key lockKey, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", lockKey{}, false
	}
	fn, _ := f.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockKey{}, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", lockKey{}, false
	}
	rt := recv.Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed {
		return "", lockKey{}, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", lockKey{}, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
		op = fn.Name()
	default:
		return "", lockKey{}, false
	}
	key, ok = lockKeyOf(f, sel, fset)
	return op, key, ok
}

// blockingCall recognizes external calls that block by contract.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "sync":
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && fn.Name() == "Wait" {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if n, ok := rt.(*types.Named); ok && (n.Obj().Name() == "WaitGroup" || n.Obj().Name() == "Cond") {
				return "sync." + n.Obj().Name() + ".Wait", true
			}
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	}
	return "", false
}

// lockKeyOf derives the identity of the mutex a method call selector
// denotes: the syntactic chain below the method plus the promotion
// path through embedded fields.
func lockKeyOf(f *flow.Func, sel *ast.SelectorExpr, fset *token.FileSet) (lockKey, bool) {
	info := f.Pkg.Info
	var promo []string
	if s, ok := info.Selections[sel]; ok {
		t := s.Recv()
		idx := s.Index()
		for _, i := range idx[:len(idx)-1] {
			st := derefStruct(t)
			if st == nil {
				break
			}
			fld := st.Field(i)
			promo = append(promo, fld.Name())
			t = fld.Type()
		}
	}
	var parts []string
	e := ast.Unparen(sel.X)
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			if xid, isID := ast.Unparen(v.X).(*ast.Ident); isID {
				if _, isPkg := info.ObjectOf(xid).(*types.PkgName); isPkg {
					return keyFromBase(info.ObjectOf(v.Sel), parts, promo, fset)
				}
			}
			parts = append([]string{v.Sel.Name}, parts...)
			e = ast.Unparen(v.X)
		case *ast.StarExpr:
			e = ast.Unparen(v.X)
		case *ast.IndexExpr:
			parts = append([]string{"[i]"}, parts...)
			e = ast.Unparen(v.X)
		case *ast.Ident:
			return keyFromBase(info.ObjectOf(v), parts, promo, fset)
		default:
			return lockKey{}, false
		}
	}
}

func keyFromBase(obj types.Object, parts, promo []string, fset *token.FileSet) (lockKey, bool) {
	v, ok := obj.(*types.Var)
	if !ok {
		return lockKey{}, false
	}
	suffix := strings.Join(append(append([]string{}, parts...), promo...), ".")
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		id := v.Pkg().Path() + "." + v.Name()
		disp := v.Pkg().Name() + "." + v.Name()
		if suffix != "" {
			id += "." + suffix
			disp += "." + suffix
		}
		return lockKey{id: id, disp: disp}, true
	}
	t := v.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed && suffix != "" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
		id := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + suffix
		disp := named.Obj().Name() + "." + suffix
		return lockKey{id: id, disp: disp}, true
	}
	// Bare local mutex: positional identity within this function.
	position := fset.Position(v.Pos())
	id := fmt.Sprintf("local:%s:%d:%s", position.Filename, position.Line, v.Name())
	return lockKey{id: id, disp: v.Name()}, true
}

// derefStruct returns the underlying struct of t, through one pointer.
func derefStruct(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
}

// solveSummaries computes each function's transitive acquire set and
// blocking flag by monotone fixpoint over the call graph, visiting
// functions in deterministic order.
func (st *lockorderState) solveSummaries() {
	funcs := st.mod.Funcs()
	for _, f := range funcs {
		sum := &lockSummary{acquires: map[string]lockKey{}}
		for _, ev := range st.events[f] {
			switch ev.kind {
			case evAcquire:
				sum.acquires[ev.key.id] = ev.key
			case evBlock:
				if !sum.blocks {
					sum.blocks, sum.blockVia = true, ev.desc
				}
			}
		}
		st.summary[f] = sum
	}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			sum := st.summary[f]
			for _, ev := range st.events[f] {
				if ev.kind != evCall {
					continue
				}
				for _, callee := range ev.call.Callees {
					cs := st.summary[callee]
					if cs == nil {
						continue
					}
					for id, k := range cs.acquires {
						if _, have := sum.acquires[id]; !have {
							sum.acquires[id] = k
							changed = true
						}
					}
					if cs.blocks && !sum.blocks {
						sum.blocks = true
						sum.blockVia = cs.blockVia
						changed = true
					}
				}
			}
		}
	}
}

// checkFunc runs the may-hold dataflow over f's CFG to a fixpoint, then
// replays each block once against its stable entry state to report.
func (st *lockorderState) checkFunc(f *flow.Func) {
	cfg := f.CFG()
	preds := map[*flow.Block][]*flow.Block{}
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	in := make([]map[string]lockKey, len(cfg.Blocks))
	out := make([]map[string]lockKey, len(cfg.Blocks))
	for i := range cfg.Blocks {
		in[i] = map[string]lockKey{}
		out[i] = map[string]lockKey{}
	}
	work := make([]*flow.Block, len(cfg.Blocks))
	copy(work, cfg.Blocks)
	inWork := make([]bool, len(cfg.Blocks))
	for i := range inWork {
		inWork[i] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false
		merged := map[string]lockKey{}
		if b != cfg.Entry {
			for _, p := range preds[b] {
				for id, k := range out[p.Index] {
					merged[id] = k
				}
			}
		}
		in[b.Index] = merged
		next := st.transfer(f, b, merged, nil)
		if !sameKeySet(out[b.Index], next) {
			out[b.Index] = next
			for _, s := range b.Succs {
				if !inWork[s.Index] {
					inWork[s.Index] = true
					work = append(work, s)
				}
			}
		}
	}
	for _, b := range cfg.Blocks {
		st.transfer(f, b, in[b.Index], f)
	}
}

// transfer applies a block's events to a held set; when reportIn is
// non-nil, violations are reported as they are found and order edges
// recorded.
func (st *lockorderState) transfer(f *flow.Func, b *flow.Block, held map[string]lockKey, reportIn *flow.Func) map[string]lockKey {
	h := make(map[string]lockKey, len(held))
	for id, k := range held {
		h[id] = k
	}
	report := reportIn != nil
	for _, n := range b.Nodes {
		for _, ev := range st.byNode[f][n] {
			switch ev.kind {
			case evAcquire:
				if report {
					if _, already := h[ev.key.id]; already {
						st.pass.Reportf(ev.pos, "lock %s acquired while already held (re-entry self-deadlocks a sync mutex)", ev.key.disp)
					}
					for _, hk := range sortedLocks(h) {
						if hk.id != ev.key.id {
							st.addEdge(hk, ev.key, ev.pos, f)
						}
					}
				}
				h[ev.key.id] = ev.key
			case evRelease:
				delete(h, ev.key.id)
			case evBlock:
				if report && len(h) > 0 {
					st.pass.Reportf(ev.pos, "lock %s held across blocking %s", sortedLocks(h)[0].disp, ev.desc)
				}
			case evCall:
				sum := &lockSummary{acquires: map[string]lockKey{}}
				for _, callee := range ev.call.Callees {
					if cs := st.summary[callee]; cs != nil {
						for id, k := range cs.acquires {
							sum.acquires[id] = k
						}
						if cs.blocks && !sum.blocks {
							sum.blocks, sum.blockVia = true, cs.blockVia
						}
					}
				}
				if report && len(h) > 0 {
					for _, a := range sortedLocks(sum.acquires) {
						if _, already := h[a.id]; already {
							st.pass.Reportf(ev.pos, "call to %s may acquire lock %s already held here (re-entry self-deadlocks a sync mutex)", ev.desc, a.disp)
							continue
						}
						for _, hk := range sortedLocks(h) {
							st.addEdge(hk, a, ev.pos, f)
						}
					}
					if sum.blocks {
						st.pass.Reportf(ev.pos, "lock %s held across call to %s, which may block on %s", sortedLocks(h)[0].disp, ev.desc, sum.blockVia)
					}
				}
				// Callee effects on the held set: locks it may leave held
				// are not modeled (callees release what they acquire or
				// are reported there); the set is unchanged.
			}
		}
	}
	return h
}

func sortedLocks(m map[string]lockKey) []lockKey {
	out := make([]lockKey, 0, len(m))
	for _, k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func sameKeySet(a, b map[string]lockKey) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if _, ok := b[id]; !ok {
			return false
		}
	}
	return true
}

func (st *lockorderState) addEdge(from, to lockKey, pos token.Pos, f *flow.Func) {
	key := [2]string{from.id, to.id}
	p := st.mod.Fset.Position(pos)
	if old, ok := st.edges[key]; ok && lessPosition(old.pos, p) {
		return
	}
	st.edges[key] = lockOrderEdge{from: from, to: to, pos: p}
}

func lessPosition(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// reportCycles finds strongly connected components of the lock-order
// graph and reports each once, at the lexically first edge inside it.
func (st *lockorderState) reportCycles() {
	adj := map[string][]string{}
	keys := map[string]lockKey{}
	for _, e := range st.edges {
		adj[e.from.id] = append(adj[e.from.id], e.to.id)
		keys[e.from.id] = e.from
		keys[e.to.id] = e.to
	}
	for id := range adj {
		sort.Strings(adj[id])
	}
	sccs := tarjanSCC(adj)
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		inSCC := map[string]bool{}
		for _, id := range scc {
			inSCC[id] = true
		}
		var first *lockOrderEdge
		for k := range st.edges {
			e := st.edges[k]
			if inSCC[e.from.id] && inSCC[e.to.id] {
				if first == nil || lessPosition(e.pos, first.pos) {
					first = &e
				}
			}
		}
		if first == nil {
			continue
		}
		var disps []string
		for _, id := range scc {
			disps = append(disps, keys[id].disp)
		}
		sort.Strings(disps)
		st.reportAtPosition(first.pos, fmt.Sprintf(
			"lock-order cycle among {%s}: %s is acquired while holding %s here, and the reverse order occurs elsewhere",
			strings.Join(disps, ", "), first.to.disp, first.from.disp))
	}
}

// reportAtPosition reports a diagnostic whose position was already
// resolved (cycle edges store Positions, not Pos).
func (st *lockorderState) reportAtPosition(pos token.Position, msg string) {
	if st.pass.allow.suppress(pos, st.pass.Analyzer.Name) {
		return
	}
	st.pass.report(Diagnostic{Analyzer: st.pass.Analyzer.Name, Pos: pos, Message: msg})
}

// tarjanSCC returns the strongly connected components of a string
// graph, each component sorted, components in discovery order.
func tarjanSCC(adj map[string][]string) [][]string {
	var nodes []string
	seen := map[string]bool{}
	for n := range adj {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				nodes = append(nodes, m)
			}
		}
	}
	sort.Strings(nodes)
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	return sccs
}
