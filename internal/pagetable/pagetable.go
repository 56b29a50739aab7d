// Package pagetable models the two page-table dimensions of a virtualized
// machine: the guest page table (GPT, gVA→gPA) maintained by the guest
// kernel, and the extended page table (EPT, gPA→hPA) maintained by the
// hypervisor. Entries carry Present/Accessed/Dirty bits that are set as a
// side effect of simulated address translation — exactly the signal the
// PTE.A/D-scanning TMM designs (TPP, H-TPP, Nomad, vTMM) consume, and the
// signal whose reset forces the TLB flushes quantified in the paper's
// Table 1.
//
// Both dimensions share one sparse radix-like representation: 512-entry
// leaf blocks addressed by the upper key bits, mirroring the 4 KiB leaf
// level of an x86 page table. Upper levels are not materialized; their
// contribution is captured by the walk-cost constants.
package pagetable

import (
	"fmt"
	"slices"
)

// Walk cost model, in memory references per translation. With four
// levels per dimension, a native (1D) walk touches 4 PTEs; a nested (2D)
// walk touches n*n + 2n = 24 (each guest level's PTE fetch requires an EPT
// walk, plus the final EPT walk of the target gPA). §2.1 of the paper puts
// the worst case at 25 including the data reference itself.
const (
	Walk1DRefs = 4
	Walk2DRefs = 24
)

const (
	blockShift = 9
	blockSize  = 1 << blockShift // 512 entries, one leaf table
	blockMask  = blockSize - 1
)

// Entry is one leaf PTE, packed into one machine word like the hardware
// format it models: frame number in the low bits, flag bits up top. The
// zero value is a non-present entry. Packing matters: the simulator's hot
// path does two table lookups per guest access, and an 8-byte entry
// halves the tables' cache footprint versus a (value, flags) struct.
type Entry struct {
	bits uint64
}

const (
	flagPresent uint64 = 1 << (63 - iota)
	flagAccessed
	flagDirty
	flagHint

	valueMask = flagHint - 1 // low 60 bits hold the frame number
)

// Present reports whether the entry maps a page.
//
//demeter:hotpath
func (e *Entry) Present() bool { return e.bits&flagPresent != 0 }

// Value returns the mapped frame number (gPFN for GPT entries, hPFN for
// EPT entries). Only meaningful when Present.
//
//demeter:hotpath
func (e *Entry) Value() uint64 { return e.bits & valueMask }

// Accessed reports the PTE.A bit.
func (e *Entry) Accessed() bool { return e.bits&flagAccessed != 0 }

// Dirty reports the PTE.D bit.
//
//demeter:hotpath
func (e *Entry) Dirty() bool { return e.bits&flagDirty != 0 }

// MarkAccessed sets the PTE.A bit (hardware does this during walks).
//
//demeter:hotpath
func (e *Entry) MarkAccessed() { e.bits |= flagAccessed }

// MarkDirty sets the PTE.D bit (hardware does this on stores).
//
//demeter:hotpath
func (e *Entry) MarkDirty() { e.bits |= flagDirty }

// ClearAccessed resets the PTE.A bit. The caller owns the consequent TLB
// invalidation; forgetting it is precisely the correctness hazard that
// forces hypervisor-based designs into full EPT flushes.
func (e *Entry) ClearAccessed() { e.bits &^= flagAccessed }

// ClearDirty resets the PTE.D bit.
func (e *Entry) ClearDirty() { e.bits &^= flagDirty }

// MarkHint arms a NUMA-hint (PROT_NONE-style) trap on the entry: the next
// access through a walk takes a minor fault that the memory manager uses
// as an access-frequency-weighted promotion trigger (TPP's mechanism).
func (e *Entry) MarkHint() { e.bits |= flagHint }

// ClearHint disarms the trap.
func (e *Entry) ClearHint() { e.bits &^= flagHint }

// Hinted reports whether the hint trap is armed.
//
//demeter:hotpath
func (e *Entry) Hinted() bool { return e.bits&flagHint != 0 }

type leafBlock struct {
	entries [blockSize]Entry
	present int
}

// Table is one page-table dimension: a sparse map from page number to
// Entry. The zero Table is not usable; call New.
type Table struct {
	blocks map[uint64]*leafBlock
	mapped uint64
	// cache is a direct-mapped block-pointer cache in front of the map:
	// the simulator's per-access hot path does two table lookups per
	// guest access, and an array probe is several times cheaper than a
	// map access.
	cache [cacheSlots]blockCacheEntry
	// keys caches the block keys in ascending order for the scans; nil
	// when a block has been added or dropped since it was built. It
	// follows cache so the cache keeps its 16-byte alignment.
	keys []uint64
}

const cacheSlots = 1024 // power of two

type blockCacheEntry struct {
	key uint64
	b   *leafBlock
}

// New returns an empty table.
func New() *Table {
	t := &Table{blocks: make(map[uint64]*leafBlock)}
	for i := range t.cache {
		t.cache[i].key = ^uint64(0)
	}
	return t
}

// blockFor returns the leaf block holding key, consulting the cache first.
//
//demeter:hotpath
func (t *Table) blockFor(blockKey uint64) *leafBlock {
	slot := &t.cache[blockKey&(cacheSlots-1)]
	if slot.key == blockKey {
		return slot.b
	}
	b := t.blocks[blockKey]
	if b != nil {
		slot.key, slot.b = blockKey, b
	}
	return b
}

// dropBlock removes a (now empty) leaf block and its cache entry.
func (t *Table) dropBlock(blockKey uint64) {
	delete(t.blocks, blockKey)
	t.keys = nil
	slot := &t.cache[blockKey&(cacheSlots-1)]
	if slot.key == blockKey {
		slot.key, slot.b = ^uint64(0), nil
	}
}

// Mapped returns the number of present entries.
func (t *Table) Mapped() uint64 { return t.mapped }

// Lookup returns the entry for key, or nil when no leaf block exists or
// the entry is not present. The returned pointer stays valid until the
// entry is unmapped; hot paths use it to set A/D bits without re-hashing.
//
//demeter:hotpath
func (t *Table) Lookup(key uint64) *Entry {
	b := t.blockFor(key >> blockShift)
	if b == nil {
		return nil
	}
	e := &b.entries[key&blockMask]
	if !e.Present() {
		return nil
	}
	return e
}

// NotMapped is the sentinel LookupValues writes for keys without a
// present entry.
const NotMapped = ^uint64(0)

// LookupValues resolves a whole batch of keys at once, writing each
// key's mapped value — or NotMapped — to the same index of out. It is
// the batched access path's prefetch primitive: one call amortizes the
// per-lookup function-call overhead across the batch, and the loop body
// carries only a two-load dependent chain per key (cache slot, entry)
// with no cross-iteration dependence, so the memory system overlaps the
// entry fetches that a pointwise Lookup sequence would serialize.
// Aliasing keys and out is allowed (out[i] is written after keys[i] is
// read). len(out) must be at least len(keys).
//
//demeter:hotpath
func (t *Table) LookupValues(keys, out []uint64) {
	out = out[:len(keys)]
	for i, key := range keys {
		v := NotMapped
		if b := t.blockFor(key >> blockShift); b != nil {
			if e := &b.entries[key&blockMask]; e.bits&flagPresent != 0 {
				v = e.bits & valueMask
			}
		}
		out[i] = v
	}
}

// Map installs key→value. Mapping an already-present key panics: the
// simulated kernels always unmap before remapping, and silent overwrite
// would hide migration accounting bugs.
//
// Map is a deliberate slow path off the access fast path: installing a
// translation happens once per faulted page and grows the table's leaf
// blocks structurally, so the hotpath call-tree walk stops here.
//
//demeter:coldpath
func (t *Table) Map(key, value uint64) *Entry {
	blockKey := key >> blockShift
	b := t.blockFor(blockKey)
	if b == nil {
		b = &leafBlock{}
		t.blocks[blockKey] = b
		t.keys = nil
	}
	e := &b.entries[key&blockMask]
	if e.Present() {
		panic(fmt.Sprintf("pagetable: double map of key %#x", key))
	}
	if value&^valueMask != 0 {
		panic(fmt.Sprintf("pagetable: value %#x overflows entry", value))
	}
	*e = Entry{bits: flagPresent | value}
	b.present++
	t.mapped++
	return e
}

// Unmap removes the mapping for key and returns its last value and dirty
// state. Unmapping a non-present key panics.
func (t *Table) Unmap(key uint64) (value uint64, dirty bool) {
	blockKey := key >> blockShift
	b := t.blockFor(blockKey)
	if b == nil || !b.entries[key&blockMask].Present() {
		panic(fmt.Sprintf("pagetable: unmap of non-present key %#x", key))
	}
	e := &b.entries[key&blockMask]
	value, dirty = e.Value(), e.Dirty()
	*e = Entry{}
	b.present--
	t.mapped--
	if b.present == 0 {
		t.dropBlock(blockKey)
	}
	return value, dirty
}

// Remap atomically changes the value of a present entry (used by migration
// remap after a page copy) and clears its A/D bits, returning the old
// value. The caller owns the TLB invalidation.
func (t *Table) Remap(key, newValue uint64) (old uint64) {
	e := t.Lookup(key)
	if e == nil {
		panic(fmt.Sprintf("pagetable: remap of non-present key %#x", key))
	}
	if newValue&^valueMask != 0 {
		panic(fmt.Sprintf("pagetable: value %#x overflows entry", newValue))
	}
	old = e.Value()
	e.bits = flagPresent | newValue
	return old
}

// sortedBlockKeys returns leaf block keys in ascending order so scans are
// deterministic regardless of map iteration order. The slice is cached
// until Map adds a block or Unmap drops one, and each rebuild fills a
// fresh slice: a scan whose callback maps or unmaps keeps iterating the
// snapshot it started with. Callers must not modify it.
func (t *Table) sortedBlockKeys() []uint64 {
	if t.keys != nil || len(t.blocks) == 0 {
		return t.keys
	}
	keys := make([]uint64, 0, len(t.blocks))
	for k := range t.blocks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	t.keys = keys
	return keys
}

// Scan visits every present entry in ascending key order. Returning false
// from fn stops the scan. Scan reports how many entries were visited —
// that count is what A-bit scanners charge CPU time for.
func (t *Table) Scan(fn func(key uint64, e *Entry) bool) (visited int) {
	for _, bk := range t.sortedBlockKeys() {
		b := t.blocks[bk]
		for i := range b.entries {
			e := &b.entries[i]
			if !e.Present() {
				continue
			}
			visited++
			if !fn(bk<<blockShift|uint64(i), e) {
				return visited
			}
		}
	}
	return visited
}

// ScanRange visits present entries with keys in [lo, hi) in ascending
// order. Used by range-aware scanners and by Demeter's relocation phase,
// which only walks hot/cold ranges instead of the whole table.
func (t *Table) ScanRange(lo, hi uint64, fn func(key uint64, e *Entry) bool) (visited int) {
	if hi <= lo {
		return 0
	}
	loBlock, hiBlock := lo>>blockShift, (hi-1)>>blockShift
	keys := t.sortedBlockKeys()
	first, _ := slices.BinarySearch(keys, loBlock)
	for _, bk := range keys[first:] {
		if bk > hiBlock {
			break
		}
		b := t.blocks[bk]
		for i := range b.entries {
			key := bk<<blockShift | uint64(i)
			if key < lo || key >= hi {
				continue
			}
			e := &b.entries[i]
			if !e.Present() {
				continue
			}
			visited++
			if !fn(key, e) {
				return visited
			}
		}
	}
	return visited
}

// ScanFrom visits up to maxVisits present entries with keys >= start in
// ascending order, returning the number visited and the key to resume
// from next time (0 when the scan reached the end of the table and should
// wrap). It is the building block for LRU-style incremental scanners that
// bound their per-round work instead of walking the whole table.
func (t *Table) ScanFrom(start uint64, maxVisits int, fn func(key uint64, e *Entry) bool) (visited int, next uint64) {
	if maxVisits <= 0 {
		return 0, start
	}
	keys := t.sortedBlockKeys()
	startBlock := start >> blockShift
	i, _ := slices.BinarySearch(keys, startBlock)
	for ; i < len(keys); i++ {
		b := t.blocks[keys[i]]
		for j := range b.entries {
			key := keys[i]<<blockShift | uint64(j)
			if key < start {
				continue
			}
			e := &b.entries[j]
			if !e.Present() {
				continue
			}
			if visited >= maxVisits {
				return visited, key
			}
			visited++
			if !fn(key, e) {
				return visited, key + 1
			}
		}
	}
	return visited, 0
}
