package track

import (
	"cmp"
	"slices"
)

// pageStore is the per-page read model shared by the page-granular
// trackers (abit, idlepage, pebs): one Counter per page ever seen, kept
// in StartGVPN order, plus a gvpn → slot index for updates. A page seen
// for the first time is appended; if that breaks the order (a PEBS
// sample, an A-bit scan that wrapped) the store re-sorts at the next
// read, not before. Once a tracker has warmed up its page set stops
// changing, so a read costs nothing.
type pageStore struct {
	pages    []Counter
	index    slotIndex
	unsorted bool
}

// reset empties the store for a fresh attach.
func (s *pageStore) reset() {
	*s = pageStore{index: slotIndex{pages: make(map[uint64]*slotPage)}}
}

// at returns gvpn's counter, or nil for a page never seen. The pointer
// is valid until the next touch.
func (s *pageStore) at(gvpn uint64) *Counter {
	if c := s.index.cell(gvpn, false); c != nil && *c != 0 {
		return &s.pages[*c-1]
	}
	return nil
}

// touch returns gvpn's counter, appending a zero one for a page seen the
// first time. The pointer is valid until the next touch.
func (s *pageStore) touch(gvpn uint64) *Counter {
	c := s.index.cell(gvpn, true)
	if *c != 0 {
		return &s.pages[*c-1]
	}
	if n := len(s.pages); n > 0 && s.pages[n-1].StartGVPN > gvpn {
		s.unsorted = true
	}
	s.pages = append(s.pages, Counter{StartGVPN: gvpn, EndGVPN: gvpn + 1})
	*c = int32(len(s.pages))
	return &s.pages[len(s.pages)-1]
}

// counters returns the store sorted by StartGVPN, restoring the order
// first if pages arrived out of it. The slice is the store's own: it is
// read-only and valid until the next touch or decay.
func (s *pageStore) counters() []Counter {
	if s.unsorted {
		slices.SortFunc(s.pages, func(a, b Counter) int { return cmp.Compare(a.StartGVPN, b.StartGVPN) })
		for i, c := range s.pages {
			*s.index.cell(c.StartGVPN, false) = int32(i + 1)
		}
		s.unsorted = false
	}
	return s.pages
}

// slotIndex maps a gvpn to its slot in pageStore.pages, plus one (0 is
// "never seen"). It is paged like the TMM baselines' scoreboards: 512
// slots per page, keyed by gvpn>>9, with the last page cached, so the
// in-order walks of a scan or a re-sort rarely reach the map.
type slotIndex struct {
	pages   map[uint64]*slotPage // gvpn>>slotPageShift → page
	lastKey uint64               // page key of last
	last    *slotPage            // nil until the first page exists
}

const (
	slotPageShift = 9
	slotPageMask  = 1<<slotPageShift - 1
)

type slotPage [1 << slotPageShift]int32

// cell returns gvpn's slot cell. Only alloc creates a missing page;
// without it a gvpn on a missing page has no cell (nil).
func (x *slotIndex) cell(gvpn uint64, alloc bool) *int32 {
	pk := gvpn >> slotPageShift
	if x.last == nil || x.lastKey != pk {
		pg := x.pages[pk]
		if pg == nil {
			if !alloc {
				return nil
			}
			pg = new(slotPage)
			x.pages[pk] = pg
		}
		x.last, x.lastKey = pg, pk
	}
	return &x.last[gvpn&slotPageMask]
}
