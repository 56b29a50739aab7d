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
// changing, so a read is a single copy.
type pageStore struct {
	pages    []Counter
	slot     map[uint64]int
	unsorted bool
}

// reset empties the store for a fresh attach.
func (s *pageStore) reset() {
	*s = pageStore{slot: make(map[uint64]int)}
}

// at returns gvpn's counter, or nil for a page never seen. The pointer
// is valid until the next touch.
func (s *pageStore) at(gvpn uint64) *Counter {
	if i, ok := s.slot[gvpn]; ok {
		return &s.pages[i]
	}
	return nil
}

// touch returns gvpn's counter, appending a zero one for a page seen the
// first time. The pointer is valid until the next touch.
func (s *pageStore) touch(gvpn uint64) *Counter {
	if i, ok := s.slot[gvpn]; ok {
		return &s.pages[i]
	}
	if n := len(s.pages); n > 0 && s.pages[n-1].StartGVPN > gvpn {
		s.unsorted = true
	}
	s.slot[gvpn] = len(s.pages)
	s.pages = append(s.pages, Counter{StartGVPN: gvpn, EndGVPN: gvpn + 1})
	return &s.pages[len(s.pages)-1]
}

// counters returns a fresh copy of the store sorted by StartGVPN,
// restoring the order first if pages arrived out of it.
func (s *pageStore) counters() []Counter {
	if s.unsorted {
		slices.SortFunc(s.pages, func(a, b Counter) int { return cmp.Compare(a.StartGVPN, b.StartGVPN) })
		for i, c := range s.pages {
			s.slot[c.StartGVPN] = i
		}
		s.unsorted = false
	}
	return slices.Clone(s.pages)
}
