package analysis

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a run of nodes executed in order, followed
// by a transfer to one of Succs.
//
// Nodes hold simple statements and bare expressions (an *ast.Expr entry
// is a branch condition or switch tag evaluated at that point). Exactly
// two compound statements appear as nodes, for their header semantics:
// *ast.RangeStmt (the ranged operand is evaluated here; a range over a
// channel is a blocking receive) and *ast.SelectStmt (blocking unless a
// default clause exists). Clients must not descend into the bodies of
// those two — their statements live in successor blocks.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the intraprocedural control-flow graph of one function body.
// Deferred calls are not threaded through the block graph: they run at
// every function exit, so they are collected in Defers (in source
// order) and the DeferStmt node itself stays in its block as a marker.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Defers []*ast.CallExpr
}

type cfgScope struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select scopes
}

type cfgBuilder struct {
	cfg    *CFG
	labels map[string]*Block
	gotos  []pendingGoto
}

type pendingGoto struct {
	from  *Block
	label string
}

// NewCFG builds the control-flow graph for one function body. Branches,
// loops, labeled break/continue/goto, switch fallthrough, select
// clauses, returns and syntactic panic(...) calls (treated as
// terminators) all produce edges; blocks are numbered in construction
// order so iteration is deterministic.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*Block)}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	end := b.stmts(b.cfg.Entry, body.List, nil)
	b.edge(end, b.cfg.Exit)
	for _, g := range b.gotos {
		if target := b.labels[g.label]; target != nil {
			b.edge(g.from, target)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) stmts(cur *Block, list []ast.Stmt, scopes []cfgScope) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s, scopes, "")
	}
	return cur
}

// stmt threads one statement through the graph and returns the block
// control falls into afterwards. label is non-empty when the statement
// is the body of a LabeledStmt, so loop and switch scopes can answer
// labeled break/continue.
func (b *cfgBuilder) stmt(cur *Block, s ast.Stmt, scopes []cfgScope, label string) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List, scopes)

	case *ast.LabeledStmt:
		head := b.newBlock()
		b.edge(cur, head)
		b.labels[s.Label.Name] = head
		return b.stmt(head, s.Stmt, scopes, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		done := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then)
		thenEnd := b.stmts(then, s.Body.List, scopes)
		b.edge(thenEnd, done)
		if s.Else != nil {
			alt := b.newBlock()
			b.edge(cur, alt)
			altEnd := b.stmt(alt, s.Else, scopes, "")
			b.edge(altEnd, done)
		} else {
			b.edge(cur, done)
		}
		return done

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		done := b.newBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, done)
		}
		post := b.newBlock()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		body := b.newBlock()
		b.edge(head, body)
		inner := append(scopes, cfgScope{label: label, breakTo: done, continueTo: post})
		bodyEnd := b.stmts(body, s.Body.List, inner)
		b.edge(bodyEnd, post)
		return done

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(cur, head)
		head.Nodes = append(head.Nodes, s) // header-only node, see Block doc
		done := b.newBlock()
		b.edge(head, done)
		body := b.newBlock()
		b.edge(head, body)
		inner := append(scopes, cfgScope{label: label, breakTo: done, continueTo: head})
		bodyEnd := b.stmts(body, s.Body.List, inner)
		b.edge(bodyEnd, head)
		return done

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchBody(cur, s.Body, scopes, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.switchBody(cur, s.Body, scopes, label, false)

	case *ast.SelectStmt:
		cur.Nodes = append(cur.Nodes, s) // header-only node, see Block doc
		done := b.newBlock()
		inner := append(scopes, cfgScope{label: label, breakTo: done})
		for _, clause := range s.Body.List {
			comm := clause.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(cur, blk)
			if comm.Comm != nil {
				blk = b.stmt(blk, comm.Comm, inner, "")
			}
			end := b.stmts(blk, comm.Body, inner)
			b.edge(end, done)
		}
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no successor besides none.
			return done
		}
		return done

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.cfg.Exit)
		return b.newBlock()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			for i := len(scopes) - 1; i >= 0; i-- {
				if s.Label == nil || scopes[i].label == s.Label.Name {
					b.edge(cur, scopes[i].breakTo)
					break
				}
			}
			return b.newBlock()
		case token.CONTINUE:
			for i := len(scopes) - 1; i >= 0; i-- {
				if scopes[i].continueTo != nil && (s.Label == nil || scopes[i].label == s.Label.Name) {
					b.edge(cur, scopes[i].continueTo)
					break
				}
			}
			return b.newBlock()
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
			}
			return b.newBlock()
		case token.FALLTHROUGH:
			// switchBody wires the edge to the next case block.
			return cur
		}
		return cur

	case *ast.DeferStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.cfg.Defers = append(b.cfg.Defers, s.Call)
		return cur

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if isPanicCall(s.X) {
			b.edge(cur, b.cfg.Exit)
			return b.newBlock()
		}
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchBody builds the clause blocks of a switch or type switch.
// caseExprs adds the clause's case expressions as nodes (value
// switches evaluate them; type-switch cases are types, not values).
func (b *cfgBuilder) switchBody(cur *Block, body *ast.BlockStmt, scopes []cfgScope, label string, caseExprs bool) *Block {
	done := b.newBlock()
	inner := append(scopes, cfgScope{label: label, breakTo: done})
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(cur, blocks[i])
		if c.List == nil {
			hasDefault = true
		} else if caseExprs {
			for _, e := range c.List {
				blocks[i].Nodes = append(blocks[i].Nodes, e)
			}
		}
	}
	if !hasDefault {
		b.edge(cur, done)
	}
	for i, c := range clauses {
		end := b.stmts(blocks[i], c.Body, inner)
		if fallsThrough(c.Body) && i+1 < len(blocks) {
			b.edge(end, blocks[i+1])
		} else {
			b.edge(end, done)
		}
	}
	return done
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isPanicCall reports whether an expression statement is a syntactic
// panic(...) call. Types are not consulted: a local function shadowing
// the builtin would be misread, an accepted AST-order approximation.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
