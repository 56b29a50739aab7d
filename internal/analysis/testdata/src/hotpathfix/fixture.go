// Package hotpathfix exercises the hotpath analyzer: allocating
// constructs are forbidden only inside //demeter:hotpath functions.
package hotpathfix

import "fmt"

type counter struct{ n int }

func sink(v any) { _ = v }

// clean is annotated and allocation-free; dying words in a panic are
// exempt.
//
//demeter:hotpath
func clean(c *counter, xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	c.n++
	if s < 0 {
		panic(fmt.Sprintf("negative sum %d", s))
	}
	return s
}

// unchecked contains every forbidden construct but carries no
// annotation and is never called from annotated code, so neither the
// direct check nor the interprocedural call-tree walk reaches it.
func unchecked(m map[int]int, s string) func() {
	fmt.Println(len(m))
	m[1] = 2
	_ = s + s
	_ = []byte(s)
	sink(42)
	return func() {}
}

// chainRoot is the only annotated function of this cluster; hop1 and
// hop2 carry no annotations, yet the call-tree walk must reach hop2's
// allocation and report the chain that gets there.
//
//demeter:hotpath
func chainRoot(n int) int { return hop1(n) }

func hop1(n int) int { return hop2(n) + 1 }

func hop2(n int) int {
	buf := make([]int, n) // want `make in hot path hop2 allocates \(hot-path tree: chainRoot → hop1 → hop2\)`
	return len(buf)
}

// refill allocates, but is a declared slow path: the walk from
// coldCaller stops at the //demeter:coldpath boundary and stays silent.
//
//demeter:coldpath
func refill(n int) []int { return make([]int, n) }

//demeter:hotpath
func coldCaller(n int) int { return len(refill(n)) }

// stepper is dispatched through an interface from an annotated root;
// the walk resolves in-module implementers, so concrete step bodies
// are checked without annotations of their own.
type stepper interface{ step(n int) int }

type allocStep struct{}

func (allocStep) step(n int) int {
	return len(make([]byte, n)) // want `make in hot path allocStep.step allocates \(hot-path tree: ifaceRoot → allocStep.step\)`
}

type cleanStep struct{ acc int }

func (s *cleanStep) step(n int) int {
	s.acc += n
	return s.acc
}

//demeter:hotpath
func ifaceRoot(s stepper, n int) int { return s.step(n) }

//demeter:hotpath
func dirty(c *counter, xs []int, s string, m map[int]int) {
	fmt.Println(c.n) // want `fmt.Println in hot path dirty allocates`
	f := func() {}   // want `closure literal in hot path dirty allocates`
	f()
	buf := make([]int, 4) // want `make in hot path dirty allocates`
	xs = append(xs, 1)    // want `append in hot path dirty may grow`
	lit := []int{1, 2}    // want `slice literal in hot path dirty allocates`
	ml := map[int]int{}   // want `map literal in hot path dirty allocates`
	p := &counter{}       // want `&composite literal in hot path dirty heap-allocates`
	cat := s + s          // want `string concatenation in hot path dirty allocates`
	bs := []byte(s)       // want `string/slice conversion in hot path dirty copies`
	m[1] = 2              // want `map write in hot path dirty may allocate`
	sink(c.n)             // want `argument boxes int into interface`
	var i any = any(c.n)  // want `conversion to interface in hot path dirty boxes`
	defer sink(i)         // want `defer in hot path dirty allocates`
	_, _, _, _, _, _, _, _ = buf, xs, lit, ml, p, cat, bs, i
}

//demeter:hotpath
func suppressed(xs []int) []int {
	//lint:allow hotpath xs is preallocated by the caller to full capacity
	xs = append(xs, 1)
	return xs
}

// batchState mimics the hypervisor's batched-access scratch: fixed
// arrays owned by the VM so stage passes stay allocation-free.
type batchState struct {
	keys [8]uint64
	pf   [8]uint64
}

// flushStage is a deliberately-allocating batch stage: it grows a fresh
// slice per window and boxes a counter into an interface — exactly the
// regressions the zero-alloc batch contract forbids. The analyzer must
// flag every one.
//
//demeter:hotpath
func flushStage(b *batchState, n int) uint64 {
	run := make([]uint64, 0, n) // want `make in hot path flushStage allocates`
	for i := 0; i < n; i++ {
		run = append(run, b.keys[i]) // want `append in hot path flushStage may grow`
	}
	var sum uint64
	for _, v := range run {
		sum += v
	}
	sink(sum) // want `argument boxes uint64 into interface`
	return sum
}

// warmStage is the allocation-free twin: it writes only into the fixed
// scratch arrays, so the analyzer stays silent.
//
//demeter:hotpath
func warmStage(b *batchState, n int) uint64 {
	var sum uint64
	for i := 0; i < n; i++ {
		b.pf[i] = b.keys[i] + 1
		sum += b.pf[i]
	}
	return sum
}
