package tmm

import (
	"math/bits"
	"slices"
)

// pageScore is one tracked page in classification order.
type pageScore struct {
	gpfn  uint64
	score float64
}

// hotterPage orders pages by score, highest first, then by gpfn, lowest
// first. Tracked gpfns are distinct, so the order is strict and total.
func hotterPage(a, b pageScore) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	case a.gpfn < b.gpfn:
		return -1
	case a.gpfn > b.gpfn:
		return 1
	}
	return 0
}

// orderedPages is a lazily sorted view of a page list under hotterPage:
// at(i) returns the page a full sort would put at index i, but the view
// orders only what is read. It is an incremental quicksort run from both
// ends. ps[:lo] and ps[hi:] are in final order; between them, each fence
// marks a pivot already in its final place, with every page before it
// hotter and every page after it colder. The open ranges between fences
// are unordered, and each end partitions only the open range next to it,
// so neither end moves a page across a fence the other end set.
//
// A range's depth counts the partitions that cut it out of the list. A
// range that reaches the depth limit, or is short, is sorted whole, so
// the work stays O(n log n) whatever the pivots.
type orderedPages struct {
	ps     []pageScore
	lo, hi int
	// fences holds the pivots in [lo, hi) in ascending position; each
	// carries the depth of the open range that ends just before it.
	fences []fence
	// topDepth is the depth of the open range that ends at hi.
	topDepth int
	limit    int
}

type fence struct{ at, depth int }

// orderedSortBelow is the open-range length below which a range is
// sorted rather than partitioned.
const orderedSortBelow = 12

// reset makes the view order ps, in place, keeping the fence buffer.
// Partitioning a range gives two ranges one level deeper, and each end
// partitions only its deepest range, so from each end inward there are
// at most two open ranges per depth: 4(limit+1) fences is room for all.
func (v *orderedPages) reset(ps []pageScore) {
	v.ps, v.lo, v.hi = ps, 0, len(ps)
	v.topDepth = 0
	v.limit = 2 * bits.Len(uint(len(ps)))
	if room := 4 * (v.limit + 1); cap(v.fences) < room {
		v.fences = make([]fence, 0, room)
	}
	v.fences = v.fences[:0]
}

// at returns the page at index i of the full order. Reads from the top
// and from the bottom may interleave in any order.
func (v *orderedPages) at(i int) pageScore {
	if i >= v.lo && i < v.hi {
		if i-v.lo <= v.hi-1-i {
			for v.lo <= i {
				v.growHead()
			}
		} else {
			for v.hi > i {
				v.growTail()
			}
		}
	}
	return v.ps[i]
}

// growHead extends the sorted prefix by at least one page.
func (v *orderedPages) growHead() {
	end, depth := v.hi, v.topDepth
	if len(v.fences) > 0 {
		end, depth = v.fences[0].at, v.fences[0].depth
	}
	switch {
	case end == v.lo: // the pivot at lo is final
		v.fences = slices.Delete(v.fences, 0, 1)
		v.lo++
	case end-v.lo < orderedSortBelow || depth >= v.limit:
		slices.SortFunc(v.ps[v.lo:end], hotterPage)
		v.lo = end
	default:
		p := v.lo + partitionPages(v.ps[v.lo:end])
		if len(v.fences) > 0 {
			v.fences[0].depth = depth + 1
		} else {
			v.topDepth = depth + 1
		}
		v.fences = slices.Insert(v.fences, 0, fence{p, depth + 1})
	}
}

// growTail extends the sorted suffix by at least one page.
func (v *orderedPages) growTail() {
	start := v.lo
	if k := len(v.fences); k > 0 {
		last := v.fences[k-1]
		if last.at == v.hi-1 { // the pivot at hi-1 is final
			v.fences = v.fences[:k-1]
			v.topDepth = last.depth
			v.hi--
			return
		}
		start = last.at + 1
	}
	if v.hi-start < orderedSortBelow || v.topDepth >= v.limit {
		slices.SortFunc(v.ps[start:v.hi], hotterPage)
		v.hi = start
		return
	}
	p := start + partitionPages(v.ps[start:v.hi])
	v.topDepth++
	v.fences = append(v.fences, fence{p, v.topDepth})
}

// partitionPages moves the median of ps's first, middle and last pages
// to index i, every hotter page before it and every colder page after
// it, and returns i. ps has at least two pages.
func partitionPages(ps []pageScore) int {
	last, mid := len(ps)-1, len(ps)/2
	if hotterPage(ps[mid], ps[0]) < 0 {
		ps[0], ps[mid] = ps[mid], ps[0]
	}
	if hotterPage(ps[last], ps[0]) < 0 {
		ps[0], ps[last] = ps[last], ps[0]
	}
	if hotterPage(ps[mid], ps[last]) < 0 {
		ps[mid], ps[last] = ps[last], ps[mid]
	}
	pivot, i := ps[last], 0
	for j := 0; j < last; j++ {
		if hotterPage(ps[j], pivot) < 0 {
			ps[i], ps[j] = ps[j], ps[i]
			i++
		}
	}
	ps[i], ps[last] = ps[last], ps[i]
	return i
}
