package obs

import (
	"fmt"

	"demeter/internal/sim"
)

// EventType tags a journal record.
type EventType uint8

// Journaled event types. These are control-plane events only — nothing
// that fires per memory access belongs here.
const (
	// EvMigrateBegin/Commit/Rollback bracket one transactional page
	// movement (Note: "swap", "move" or "host"; Arg1 = page, Arg2 =
	// partner page or target node).
	EvMigrateBegin EventType = iota
	EvMigrateCommit
	EvMigrateRollback
	// EvPMI is one performance-monitoring interrupt (Arg1 = buffered
	// samples at delivery).
	EvPMI
	// EvBalloonOp is one completed balloon operation (Note: "inflate" or
	// "deflate"; Arg1 = pages moved, Arg2 = guest node + 1, 0 when
	// tier-unaware).
	EvBalloonOp
	// EvTLBFullFlush is one invept-style full invalidation.
	EvTLBFullFlush
	// EvFault is one injected fault firing (Note = point name, Arg1 =
	// magnitude as math.Float64bits).
	EvFault
	// EvHealthTransition is one delegation health state change (Note =
	// target state name, Arg1 = signal bitmask that drove it, Arg2 =
	// prior state).
	EvHealthTransition
	// EvHealthProbe is one degraded-mode recovery probe (Note =
	// "probe-ok" or "probe-fail", Arg1 = attempt number).
	EvHealthProbe
)

func (t EventType) String() string {
	switch t {
	case EvMigrateBegin:
		return "migrate_begin"
	case EvMigrateCommit:
		return "migrate_commit"
	case EvMigrateRollback:
		return "migrate_rollback"
	case EvPMI:
		return "pmi"
	case EvBalloonOp:
		return "balloon_op"
	case EvTLBFullFlush:
		return "tlb_full_flush"
	case EvFault:
		return "fault"
	case EvHealthTransition:
		return "health_transition"
	case EvHealthProbe:
		return "health_probe"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// category groups event types for trace viewers.
func (t EventType) category() string {
	switch t {
	case EvMigrateBegin, EvMigrateCommit, EvMigrateRollback:
		return "migrate"
	case EvPMI:
		return "pebs"
	case EvBalloonOp:
		return "balloon"
	case EvTLBFullFlush:
		return "tlb"
	case EvFault:
		return "fault"
	case EvHealthTransition, EvHealthProbe:
		return "health"
	default:
		return "other"
	}
}

// Event is one journal record. Note must be a static string (an
// operation tag or fault point name), so appending never allocates.
type Event struct {
	At   sim.Time  `json:"at"`
	Type EventType `json:"type"`
	VM   int32     `json:"vm"`
	Note string    `json:"note,omitempty"`
	Arg1 uint64    `json:"arg1,omitempty"`
	Arg2 uint64    `json:"arg2,omitempty"`
}

// DefaultJournalCap bounds the journal when the caller passes 0: large
// enough to hold a full management epoch of control events. A ring of
// this size is ~1 MiB of Events; a run that does not export its events
// keeps a count-only journal (NewCounting) instead.
const DefaultJournalCap = 16384

// Journal is a bounded ring of Events. When full, the oldest records are
// overwritten — the journal is a flight recorder, not an audit log — and
// Dropped counts the overwritten records. A count-only journal keeps no
// ring: it reports the same Len, Cap, Total and Dropped as a ring of its
// capacity, and its Events is nil. A nil *Journal accepts and discards
// appends, so call sites need no guards beyond their obs-enabled check.
type Journal struct {
	ring     []Event // nil in a count-only journal
	capacity int
	next     int
	n        int
	total    uint64
}

// NewJournal returns a journal holding up to capacity events (0 selects
// DefaultJournalCap).
func NewJournal(capacity int) *Journal {
	j := newCountingJournal(capacity)
	j.ring = make([]Event, j.capacity)
	return j
}

// newCountingJournal returns a count-only journal of the given capacity
// (0 selects DefaultJournalCap): it counts appends as a ring of that
// capacity would, and retains none of them.
func newCountingJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{capacity: capacity}
}

// Append records e, overwriting the oldest record when full.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	if j.ring != nil {
		j.ring[j.next] = e
		j.next++
		if j.next == j.capacity {
			j.next = 0
		}
	}
	if j.n < j.capacity {
		j.n++
	}
	j.total++
}

// Events returns the retained records, oldest first (nil for a
// count-only journal).
func (j *Journal) Events() []Event {
	if j == nil || j.ring == nil || j.n == 0 {
		return nil
	}
	out := make([]Event, 0, j.n)
	start := j.next - j.n
	if start < 0 {
		start += j.capacity
	}
	for i := 0; i < j.n; i++ {
		out = append(out, j.ring[(start+i)%j.capacity])
	}
	return out
}

// Len returns the number of retained records.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.n
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return j.capacity
}

// Total returns how many events were ever appended.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	return j.total
}

// Dropped returns how many records were overwritten.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.total - uint64(j.n)
}
