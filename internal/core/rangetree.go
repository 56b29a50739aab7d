// Package core implements Demeter's guest-delegated tiered memory
// management (§3.2): the range-based hotness classifier operating in guest
// virtual address space, the bounded sample channel fed from
// context-switch PEBS draining (the paper's lock-free multi-producer
// channel, represented by its constant per-sample cost: the simulator runs
// each VM on one goroutine), and the balanced page relocation pipeline.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// The range tree's fixed tunables, at the paper's values (§3.2.1).
const (
	// alpha is the significance factor α: a leaf splits when its access
	// count exceeds both neighbors' by at least alpha·SplitThreshold·vcpus.
	alpha = 2
	// mergeEpochs is τ_merge: epochs a decayed range pair must stay cold
	// before merging.
	mergeEpochs = 8
)

// Params are Demeter's varied tunables with the paper's defaults
// (§3.2.1, §5.2.3). All sizes are in 4 KiB pages; periods are owned by
// the policy (the tree is driven by epoch calls, not wall time).
type Params struct {
	// SplitThreshold is τ_split.
	SplitThreshold float64
	// GranularityPages is the minimum range size (2 MiB = 512 pages,
	// §3.4.1: intra-hugepage skew is deliberately not chased).
	GranularityPages uint64
}

// DefaultParams mirrors the paper: τ_split=15, 2 MiB granularity (α and
// τ_merge are the constants alpha and mergeEpochs).
func DefaultParams() Params {
	return Params{SplitThreshold: 15, GranularityPages: 512}
}

// Region is one tracked virtual address range in pages.
type Region struct {
	StartPage, EndPage uint64
}

// RangeInfo describes one leaf range for ranking consumers.
type RangeInfo struct {
	StartPage, EndPage uint64
	Count              float64
	Freq               float64 // count per page
	Created            uint64  // epoch of creation (split time)
}

// Pages returns the range length.
func (r RangeInfo) Pages() uint64 { return r.EndPage - r.StartPage }

type rnode struct {
	start, end  uint64 // [start, end) in pages
	count       float64
	created     uint64
	left, right *rnode
}

func (n *rnode) leaf() bool             { return n.left == nil }
func (n *rnode) pages() uint64          { return n.end - n.start }
func (n *rnode) contains(p uint64) bool { return p >= n.start && p < n.end }

// RangeTree is the segment-tree-like classifier of Figure 5. It starts
// with one range per tracked region (heap and mmap area), progressively
// splits ranges whose access counts significantly exceed their neighbors,
// decays counts every epoch, and merges decayed siblings back together.
// It is not safe for concurrent use; the single consumer of the sample
// channel owns it.
type RangeTree struct {
	cfg   Params
	roots []*rnode // address-ordered, non-overlapping
	epoch uint64

	merges  uint64
	ignored uint64 // samples outside tracked regions

	// Buffers reused across epochs; see leavesInOrder and ranked.
	leafBuf []*rnode
	rankBuf []RangeInfo
}

// NewRangeTree builds a tree over the given regions (zero-length regions
// are skipped; regions must be non-overlapping).
func NewRangeTree(cfg Params, regions ...Region) *RangeTree {
	if cfg.GranularityPages == 0 {
		panic("core: zero split granularity")
	}
	t := &RangeTree{cfg: cfg}
	for _, r := range regions {
		if r.EndPage <= r.StartPage {
			continue
		}
		t.roots = append(t.roots, &rnode{start: r.StartPage, end: r.EndPage})
	}
	sort.Slice(t.roots, func(i, j int) bool { return t.roots[i].start < t.roots[j].start })
	for i := 1; i < len(t.roots); i++ {
		if t.roots[i].start < t.roots[i-1].end {
			panic(fmt.Sprintf("core: overlapping regions %#x and %#x", t.roots[i-1].start, t.roots[i].start))
		}
	}
	return t
}

// Record attributes one access sample to the leaf containing page.
// Samples outside every tracked region (code/data/stack, deliberately
// excluded per §3.2.1) are counted but otherwise ignored.
func (t *RangeTree) Record(page uint64) {
	// Binary search for the root whose range may contain the page.
	i := sort.Search(len(t.roots), func(i int) bool { return t.roots[i].end > page })
	if i >= len(t.roots) || !t.roots[i].contains(page) {
		t.ignored++
		return
	}
	n := t.roots[i]
	for !n.leaf() {
		if page < n.left.end {
			n = n.left
		} else {
			n = n.right
		}
	}
	n.count++
}

// leavesInOrder returns all leaves in address order, in a buffer the tree
// reuses: the result is valid until the next leavesInOrder call.
func (t *RangeTree) leavesInOrder() []*rnode {
	out := t.leafBuf[:0]
	for _, r := range t.roots {
		out = appendLeaves(out, r)
	}
	t.leafBuf = out
	return out
}

// appendLeaves appends n's leaves to out in address order.
func appendLeaves(out []*rnode, n *rnode) []*rnode {
	if n.leaf() {
		return append(out, n)
	}
	return appendLeaves(appendLeaves(out, n.left), n.right)
}

// EndEpoch runs one classification epoch: split checks against both
// neighbors (using the significance bar alpha·SplitThreshold·vcpus),
// merging of long-decayed siblings, and count decay. It returns the number
// of splits and merges performed this epoch.
func (t *RangeTree) EndEpoch(vcpus int) (splits, merges int) {
	if vcpus <= 0 {
		panic("core: EndEpoch needs a positive vcpu count")
	}
	t.epoch++
	bar := alpha * t.cfg.SplitThreshold * float64(vcpus)

	leaves := t.leavesInOrder()
	for i, n := range leaves {
		if n.pages() < 2*t.cfg.GranularityPages {
			continue // halves would drop below the split granularity
		}
		var prev, next float64
		if i > 0 {
			prev = leaves[i-1].count
		}
		if i < len(leaves)-1 {
			next = leaves[i+1].count
		}
		if n.count-prev >= bar && n.count-next >= bar {
			t.split(n)
			splits++
		}
	}

	merges = t.mergePass()

	// Decay: halve every leaf count so stale hotness fades (§3.2.1).
	for _, n := range t.leavesInOrder() {
		n.count /= 2
	}

	t.merges += uint64(merges)
	return splits, merges
}

// split divides n at its granularity-aligned midpoint; each half inherits
// half the access count and is stamped with the current epoch.
func (t *RangeTree) split(n *rnode) {
	g := t.cfg.GranularityPages
	mid := n.start + (n.pages()/2/g)*g
	if mid == n.start {
		mid = n.start + g
	}
	half := n.count / 2
	n.left = &rnode{start: n.start, end: mid, count: half, created: t.epoch}
	n.right = &rnode{start: mid, end: n.end, count: half, created: t.epoch}
	n.count = 0
}

// mergePass collapses sibling leaf pairs whose counts have decayed to
// (effectively) zero and that have been stable for mergeEpochs.
func (t *RangeTree) mergePass() int {
	merged := 0
	for _, r := range t.roots {
		merged += t.mergeUnder(r)
	}
	return merged
}

// mergeUnder runs the merge pass over n's subtree, children first, and
// returns the merges it made.
func (t *RangeTree) mergeUnder(n *rnode) int {
	if n.leaf() {
		return 0
	}
	merged := t.mergeUnder(n.left) + t.mergeUnder(n.right)
	if n.left.leaf() && n.right.leaf() &&
		n.left.count < 1 && n.right.count < 1 &&
		t.epoch-n.left.created >= mergeEpochs &&
		t.epoch-n.right.created >= mergeEpochs {
		n.count = n.left.count + n.right.count
		n.created = t.epoch
		n.left, n.right = nil, nil
		merged++
	}
	return merged
}

// Ranked returns all leaf ranges ordered by hotness: descending access
// frequency (count per page), with creation age as tiebreaker — newer
// ranges first, leveraging temporal locality (§3.2.1 "Hotness Ranking").
func (t *RangeTree) Ranked() []RangeInfo { return slices.Clone(t.ranked()) }

// ranked is Ranked in a buffer the tree reuses: the result is valid
// until the next ranked call.
func (t *RangeTree) ranked() []RangeInfo {
	out := t.rankBuf[:0]
	for _, n := range t.leavesInOrder() {
		out = append(out, RangeInfo{
			StartPage: n.start,
			EndPage:   n.end,
			Count:     n.count,
			Freq:      n.count / float64(n.pages()),
			Created:   n.created,
		})
	}
	slices.SortStableFunc(out, byHotness)
	t.rankBuf = out
	return out
}

// byHotness orders ranges by descending frequency, then newest first.
func byHotness(a, b RangeInfo) int {
	switch {
	case a.Freq > b.Freq:
		return -1
	case a.Freq < b.Freq:
		return 1
	}
	return cmp.Compare(b.Created, a.Created)
}

// Leaves returns the current number of leaf ranges (the paper expects
// this to stay small — tens, not thousands).
func (t *RangeTree) Leaves() int { return len(t.leavesInOrder()) }

// Ignored returns samples that fell outside tracked regions.
func (t *RangeTree) Ignored() uint64 { return t.ignored }

// TotalMerges returns lifetime merge count.
func (t *RangeTree) TotalMerges() uint64 { return t.merges }

// String renders the leaf ranges for diagnostics.
func (t *RangeTree) String() string {
	var b strings.Builder
	for _, l := range t.leavesInOrder() {
		fmt.Fprintf(&b, "[%#x,%#x) pages=%d count=%.1f\n", l.start, l.end, l.pages(), l.count)
	}
	return b.String()
}

// checkInvariants validates structural invariants; tests call it after
// random operation sequences.
func (t *RangeTree) checkInvariants() error {
	leaves := t.leavesInOrder()
	for i, n := range leaves {
		if n.end <= n.start {
			return fmt.Errorf("empty leaf [%d,%d)", n.start, n.end)
		}
		if n.count < 0 {
			return fmt.Errorf("negative count %v", n.count)
		}
		if i > 0 && leaves[i-1].end > n.start {
			return fmt.Errorf("overlap between %d and %d", i-1, i)
		}
	}
	// Leaves of each root partition the root exactly.
	idx := 0
	for _, r := range t.roots {
		pos := r.start
		for idx < len(leaves) && leaves[idx].end <= r.end && leaves[idx].start >= r.start {
			if leaves[idx].start != pos {
				return fmt.Errorf("gap at %#x", pos)
			}
			pos = leaves[idx].end
			idx++
		}
		if pos != r.end {
			return fmt.Errorf("root [%#x,%#x) not fully covered (stopped at %#x)", r.start, r.end, pos)
		}
	}
	return nil
}
