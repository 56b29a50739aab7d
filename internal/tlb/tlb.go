// Package tlb models a translation lookaside buffer caching flattened 2D
// translations (gVA page → host frame). Its two invalidation primitives
// mirror the x86 instruction classes the paper counts in Table 1:
//
//   - FlushSingle: invlpg/invvpid/invpcid — removes the entry for one gVA.
//     Available only to software that knows the gVA, i.e. the guest.
//   - FlushAll: invept — destroys every entry derived from an EPT. This is
//     the only tool a hypervisor has after clearing EPT A/D bits, because
//     EPT entries carry no gVA to invalidate selectively.
//
// The performance coupling is causal in the model: a flushed entry forces
// the next access to that page through a full 2D page-table walk, so flush
// counts translate into slowdown exactly as in §2.3.1.
package tlb

import "fmt"

// Entry identity: one cached translation, split structure-of-arrays style
// into a tag (keys) and a value (vals) plane. A tag is gvpn+1 so the zero
// value is invalid without a separate flag byte (a guest page number is an
// address shifted right by the page bits, so +1 cannot overflow). The SoA
// split matters to the batched access path: a probe scans only the tag
// plane, so an 8-way set costs one cache line instead of two, and the
// value plane is touched only on a hit.

// Stats holds instruction and traffic counters. Single/Full count flush
// *instructions issued* (the unit of Table 1), independent of whether a
// matching entry was cached.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	SingleFlushes uint64
	FullFlushes   uint64
	Evictions     uint64
	Fills         uint64
}

// HitRate returns hits/lookups, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// TLB is a set-associative translation cache. Not safe for concurrent use;
// the simulation is single-threaded.
//
// Entries live in two flat parallel planes (set i occupies index range
// [i*assoc, (i+1)*assoc) of both keys and vals) rather than a slice of
// per-set structs.
type TLB struct {
	keys    []uint64 // tag plane: gvpn+1; 0 = invalid
	vals    []uint64 // value plane: hpfn, parallel to keys
	assoc   int
	setMask uint64
	next    []uint8 // per-set round-robin replacement cursor (assoc ≤ 255)
	stats   Stats
	// cleared is set by a full clear and reset by a fill into a free
	// way: while it holds, all three planes are still zero, so FlushAll
	// has nothing to clear. An eviction needs a full set, which only
	// free-way fills since the clear can have made.
	cleared bool
}

// New returns a TLB with the given total entry count and associativity.
// entries must be a multiple of ways and entries/ways a power of two; a
// bad geometry is a caller configuration error and returns an error.
func New(entries, ways int) (*TLB, error) {
	if entries <= 0 || ways <= 0 || ways > 255 || entries%ways != 0 {
		return nil, fmt.Errorf("tlb: bad geometry %d entries / %d ways", entries, ways)
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("tlb: set count %d not a power of two", nsets)
	}
	return &TLB{
		keys:    make([]uint64, entries),
		vals:    make([]uint64, entries),
		assoc:   ways,
		setMask: uint64(nsets - 1),
		next:    make([]uint8, nsets),
		cleared: true,
	}, nil
}

// NewDefault returns a TLB with the default geometry: 16384 entries,
// 8-way. A hardware STLB has ~2K entries, but guests back large regions
// with 2 MiB huge pages; the widened reach stands in for THP coverage at
// the simulator's 4 KiB granularity. The geometry is a known-good
// constant, so failure here would be an internal invariant violation.
func NewDefault() *TLB {
	t, err := New(16384, 8)
	if err != nil {
		panic(err)
	}
	return t
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters without touching cached entries.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Lookup returns the cached host frame for gvpn. A hit refreshes nothing
// (replacement is round-robin, not LRU: deterministic and close enough for
// miss-rate shaping).
//
//demeter:hotpath
func (t *TLB) Lookup(gvpn uint64) (hpfn uint64, ok bool) {
	t.stats.Lookups++
	key := gvpn + 1
	base := int(gvpn&t.setMask) * t.assoc
	keys := t.keys[base : base+t.assoc]
	for i := range keys {
		if keys[i] == key {
			t.stats.Hits++
			return t.vals[base+i], true
		}
	}
	t.stats.Misses++
	return 0, false
}

// WarmTags touches the set's tag line for every gvpn and returns a
// checksum of the words read. It is a pure lookup accelerator for the
// batched access path's prefetch stage: no counter moves, no entry
// changes, and the checksum exists only so the compiler cannot discard
// the loads. It is branchless — each gvpn costs one load regardless of
// whether it hits, so a window's worth of warming issues as one
// overlapped burst instead of a chain of mispredicted compares.
//
//demeter:hotpath
func (t *TLB) WarmTags(gvpns []uint64) uint64 {
	var sum uint64
	for _, g := range gvpns {
		sum += t.keys[int(g&t.setMask)*t.assoc]
	}
	return sum
}

// Insert caches gvpn→hpfn after a walk, evicting round-robin within the
// set when full. Inserting an existing gvpn updates it in place.
//
//demeter:hotpath
func (t *TLB) Insert(gvpn, hpfn uint64) {
	key := gvpn + 1
	si := gvpn & t.setMask
	base := int(si) * t.assoc
	keys := t.keys[base : base+t.assoc]
	free := -1
	for i := range keys {
		if keys[i] == key {
			t.vals[base+i] = hpfn
			return
		}
		if keys[i] == 0 && free < 0 {
			free = i
		}
	}
	if free >= 0 {
		keys[free] = key
		t.vals[base+free] = hpfn
		t.stats.Fills++
		t.cleared = false
		return
	}
	v := int(t.next[si])
	if v+1 == t.assoc {
		t.next[si] = 0
	} else {
		t.next[si] = uint8(v + 1)
	}
	keys[v] = key
	t.vals[base+v] = hpfn
	t.stats.Evictions++
	t.stats.Fills++
}

// FlushSingle issues one single-address invalidation for gvpn.
func (t *TLB) FlushSingle(gvpn uint64) {
	t.stats.SingleFlushes++
	key := gvpn + 1
	base := int(gvpn&t.setMask) * t.assoc
	keys := t.keys[base : base+t.assoc]
	for i := range keys {
		if keys[i] == key {
			keys[i] = 0
			t.vals[base+i] = 0
			return
		}
	}
}

// FlushAll issues a full invalidation (invept), destroying all entries.
// Both planes and the per-set round-robin cursors reset. A flush empties
// every set, so any state surviving it — a stale tag that could
// fabricate a hit, or a replacement cursor making post-flush eviction
// victims depend on pre-flush history — would break determinism or
// correctness.
//
// The instruction is always counted, but the host-side clear runs only
// if an entry was filled since the last one: back-to-back invepts (a
// scan's batch flushes, one per host migration) find the planes already
// zero. Fills are the only writes that make a plane nonzero: a single
// flush only zeroes, and a cursor moves only on an eviction.
func (t *TLB) FlushAll() {
	t.stats.FullFlushes++
	if t.cleared {
		return
	}
	clear(t.keys)
	clear(t.vals)
	clear(t.next)
	t.cleared = true
}

// Scan visits every valid entry (audit/diagnostic use); returning false
// from fn stops the walk.
func (t *TLB) Scan(fn func(gvpn, hpfn uint64) bool) {
	for i := range t.keys {
		if t.keys[i] != 0 && !fn(t.keys[i]-1, t.vals[i]) {
			return
		}
	}
}

// Occupied returns the number of valid entries (test/diagnostic use).
func (t *TLB) Occupied() int {
	n := 0
	for i := range t.keys {
		if t.keys[i] != 0 {
			n++
		}
	}
	return n
}
