package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildCFG parses src as the body of a function and returns its CFG.
func buildCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return NewCFG(fd.Body)
}

// succSet returns the set of blocks reachable from entry.
func reachable(cfg *CFG) map[*Block]bool {
	seen := map[*Block]bool{cfg.Entry: true}
	stack := []*Block{cfg.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	cfg := buildCFG(t, "x := 1\n_ = x")
	if len(cfg.Entry.Nodes) != 2 {
		t.Fatalf("entry nodes = %d, want 2", len(cfg.Entry.Nodes))
	}
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGIfElseBranches(t *testing.T) {
	cfg := buildCFG(t, "x := 1\nif x > 0 { x = 2 } else { x = 3 }\n_ = x")
	// Entry must branch two ways: then-block and else-block.
	if got := len(cfg.Entry.Succs); got != 2 {
		t.Fatalf("entry succs = %d, want 2 (then/else)", got)
	}
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGIfWithoutElseFallsThrough(t *testing.T) {
	cfg := buildCFG(t, "x := 1\nif x > 0 { x = 2 }\n_ = x")
	if got := len(cfg.Entry.Succs); got != 2 {
		t.Fatalf("entry succs = %d, want 2 (then/join)", got)
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	cfg := buildCFG(t, "for i := 0; i < 3; i++ { _ = i }")
	// Some block must have a successor with a smaller index: the back
	// edge from the post block to the loop head.
	back := false
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != cfg.Exit {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("no loop back edge")
	}
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("exit unreachable")
	}
}

func TestCFGInfiniteLoopWithBreak(t *testing.T) {
	cfg := buildCFG(t, "for { break }")
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("break must make exit reachable from a cond-less for")
	}
}

func TestCFGRangeHeaderNode(t *testing.T) {
	cfg := buildCFG(t, "xs := []int{1}\nfor _, v := range xs { _ = v }")
	found := false
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				found = true
				// Header-only contract: the loop body statement must not
				// also be in this block.
				if len(b.Nodes) != 1 {
					t.Fatalf("range head block holds %d nodes, want only the RangeStmt", len(b.Nodes))
				}
			}
		}
	}
	if !found {
		t.Fatal("no RangeStmt header node")
	}
}

func TestCFGReturnTerminates(t *testing.T) {
	cfg := buildCFG(t, "x := 1\nif x > 0 { return }\n_ = x")
	// The then-block must have the Exit as a successor.
	hasExitEdge := false
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				for _, s := range b.Succs {
					if s == cfg.Exit {
						hasExitEdge = true
					}
				}
			}
		}
	}
	if !hasExitEdge {
		t.Fatal("return block lacks edge to exit")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	cfg := buildCFG(t, `x := 1
if x > 0 {
	panic("boom")
}
_ = x`)
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok || !isPanicCall(es.X) {
				continue
			}
			for _, s := range b.Succs {
				if s == cfg.Exit {
					return
				}
			}
			t.Fatal("panic block lacks edge to exit")
		}
	}
	t.Fatal("panic statement not found in any block")
}

func TestCFGDefersCollected(t *testing.T) {
	cfg := buildCFG(t, "defer close(make(chan int))\ndefer func() {}()")
	if len(cfg.Defers) != 2 {
		t.Fatalf("defers = %d, want 2", len(cfg.Defers))
	}
	// The DeferStmt markers stay in their block.
	markers := 0
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				markers++
			}
		}
	}
	if markers != 2 {
		t.Fatalf("defer markers in blocks = %d, want 2", markers)
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	cfg := buildCFG(t, `x := 1
switch x {
case 1:
	x = 10
	fallthrough
case 2:
	x = 20
default:
	x = 30
}
_ = x`)
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("exit unreachable")
	}
	// Case 1's block must flow into case 2's block: find the block whose
	// nodes assign 10 and check one of its successors assigns 20.
	assignVal := func(b *Block, want string) bool {
		for _, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Value == want {
				return true
			}
		}
		return false
	}
	for _, b := range cfg.Blocks {
		if !assignVal(b, "10") {
			continue
		}
		for _, s := range b.Succs {
			if assignVal(s, "20") {
				return
			}
		}
		t.Fatal("fallthrough edge from case 1 to case 2 missing")
	}
	t.Fatal("case-1 block not found")
}

func TestCFGSelectClauses(t *testing.T) {
	cfg := buildCFG(t, `ch := make(chan int)
select {
case v := <-ch:
	_ = v
case ch <- 1:
}`)
	var head *Block
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.SelectStmt); ok {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatal("no SelectStmt header node")
	}
	if got := len(head.Succs); got != 2 {
		t.Fatalf("select head succs = %d, want 2 (one per clause)", got)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	cfg := buildCFG(t, `outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if j == 1 {
			break outer
		}
	}
}`)
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("exit unreachable with labeled break")
	}
}

func TestCFGGoto(t *testing.T) {
	cfg := buildCFG(t, `x := 0
again:
x++
if x < 3 {
	goto again
}`)
	// The goto must produce a back edge to the labeled block.
	back := false
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != cfg.Exit && s != cfg.Entry {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("goto back edge missing")
	}
}
