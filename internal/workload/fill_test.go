package workload

import (
	"testing"
)

// fillBuilders enumerates every generator with moderate sizes so the
// differential sweep stays fast while still crossing init → main phase
// and several hot-window shifts.
func fillBuilders() []struct {
	name  string
	build func() Workload
} {
	return []struct {
		name  string
		build func() Workload
	}{
		{"gups", func() Workload { return Must(NewGUPS(256, 3000, 7)) }},
		{"btree", func() Workload { return Must(NewBTree(512, 1500, 7)) }},
		{"xsbench", func() Workload { return Must(NewXSBench(256, 1500, 7)) }},
		{"liblinear", func() Workload { return Must(NewLibLinear(256, 3000, 7)) }},
		{"bwaves", func() Workload { return Must(NewBwaves(128, 3000, 7)) }},
		{"silo", func() Workload { return Must(NewSilo(512, 500, 7)) }},
		{"graph500", func() Workload { return Must(NewGraph500(128, 1500, 7)) }},
		{"pagerank", func() Workload { return Must(NewPageRank(256, 1500, 7)) }},
		{"ycsb-a", func() Workload { return Must(NewYCSB(256, 1500, 7, YCSBA)) }},
		{"ycsb-c", func() Workload { return Must(NewYCSB(256, 1500, 7, YCSBC)) }},
		{"ycsb-e", func() Workload { return Must(NewYCSB(256, 500, 7, YCSBE)) }},
	}
}

// drainSized pulls the full stream using a fixed buffer size. It reports
// stalled=true when the workload stops making progress before done — the
// contract for buffers smaller than one access group.
func drainSized(t *testing.T, w Workload, size int) (all []Access, stalled bool) {
	t.Helper()
	buf := make([]Access, size)
	zeroRuns := 0
	for iter := 0; ; iter++ {
		if iter > 5_000_000 {
			t.Fatalf("buffer %d: workload did not terminate", size)
		}
		n, done := w.Fill(buf)
		all = append(all, buf[:n]...)
		if done {
			return all, false
		}
		if n == 0 {
			zeroRuns++
			if zeroRuns >= 3 {
				return all, true
			}
			continue
		}
		zeroRuns = 0
	}
}

// groupSize probes the smallest buffer that can drain the workload to
// completion — the atomic access-group width (1 for single-access
// generators, TxnAccesses for transactional ones, the lookup depth for
// pointer-chasing ones).
func groupSize(t *testing.T, build func() Workload) int {
	t.Helper()
	for g := 1; g <= 64; g++ {
		if _, stalled := drainSized(t, build(), g); !stalled {
			return g
		}
	}
	t.Fatal("no buffer size up to 64 drains the workload")
	return 0
}

// TestFillPartialBufferEquivalence is the partial-buffer audit: for every
// workload, draining through an adversarially small buffer (exactly one
// group, one more, just under a flush boundary) must emit the byte-
// identical stream a single huge buffer produces, and a buffer smaller
// than one group must stall cleanly at a group boundary — a prefix of the
// reference stream, never a torn group.
func TestFillPartialBufferEquivalence(t *testing.T) {
	for _, tc := range fillBuilders() {
		t.Run(tc.name, func(t *testing.T) {
			ref, stalled := drainSized(t, mustSetup(tc.build()), 1<<16)
			if stalled || len(ref) == 0 {
				t.Fatalf("reference drain stalled=%v len=%d", stalled, len(ref))
			}
			g := groupSizeSetup(t, tc.build)
			if tr, ok := tc.build().(Transactional); ok && g != tr.TxnAccesses() {
				t.Errorf("probed group %d != TxnAccesses %d", g, tr.TxnAccesses())
			}

			sizes := map[int]bool{1: true, g - 1: true, g: true, g + 1: true, g*2 - 1: true}
			for size := range sizes {
				if size < 1 {
					continue
				}
				got, gotStalled := drainSized(t, mustSetup(tc.build()), size)
				if size >= g {
					if gotStalled {
						t.Errorf("buffer %d (>= group %d) stalled", size, g)
						continue
					}
					if len(got) != len(ref) {
						t.Errorf("buffer %d: %d accesses, reference %d", size, len(got), len(ref))
						continue
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Errorf("buffer %d: access %d = %+v, reference %+v", size, i, got[i], ref[i])
							break
						}
					}
				} else {
					if !gotStalled {
						t.Errorf("buffer %d (< group %d) drained to completion", size, g)
						continue
					}
					// The stalled stream must be a clean prefix: the init
					// sweep plus whole groups, never a torn group.
					if len(got) > len(ref) {
						t.Errorf("buffer %d: emitted %d > reference %d", size, len(got), len(ref))
						continue
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Errorf("buffer %d: prefix access %d = %+v, reference %+v", size, i, got[i], ref[i])
							break
						}
					}
					init := int(mustSetup(tc.build()).InitOps())
					if rem := (len(got) - init) % g; len(got) >= init && rem != 0 {
						t.Errorf("buffer %d: stalled mid-group (init %d + %d main, group %d)", size, init, len(got)-init, g)
					}
				}
			}
		})
	}
}

// TestFillResumeAcrossBoundaries alternates awkward buffer sizes within a
// single drain so every flush boundary (group straddling the buffer end,
// size-1 dribble, exact fit) is hit repeatedly, and the stitched stream
// must still match the reference.
func TestFillResumeAcrossBoundaries(t *testing.T) {
	for _, tc := range fillBuilders() {
		t.Run(tc.name, func(t *testing.T) {
			ref, _ := drainSized(t, mustSetup(tc.build()), 1<<16)
			g := groupSizeSetup(t, tc.build)
			pattern := []int{g, 2*g + 1, g, 3*g - 1, g + 1}
			w := mustSetup(tc.build())
			var got []Access
			pi := 0
			for iter := 0; ; iter++ {
				if iter > 5_000_000 {
					t.Fatal("alternating drain did not terminate")
				}
				buf := make([]Access, pattern[pi%len(pattern)])
				pi++
				n, done := w.Fill(buf)
				got = append(got, buf[:n]...)
				if done {
					break
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("alternating drain: %d accesses, reference %d", len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("alternating drain: access %d = %+v, reference %+v", i, got[i], ref[i])
				}
			}
		})
	}
}

// mustSetup wires a fresh fake address space; the fixture is
// deterministic, so twin instances see identical layouts.
func mustSetup(w Workload) Workload {
	w.Setup(newFakeAS())
	return w
}

// groupSizeSetup probes group size on set-up instances.
func groupSizeSetup(t *testing.T, build func() Workload) int {
	t.Helper()
	return groupSize(t, func() Workload { return mustSetup(build()) })
}

// TestGroupSizesMatchDocumentedShape pins the probed group widths so a
// refactor silently changing a workload's atomic unit fails loudly.
func TestGroupSizesMatchDocumentedShape(t *testing.T) {
	want := map[string]int{
		"gups":      1,
		"liblinear": 1,
		"bwaves":    1,
		"pagerank":  3,
		"graph500":  4,
		"xsbench":   5,
		"silo":      8,
		"ycsb-a":    2,
		"ycsb-c":    2,
		"ycsb-e":    1 + ycsbScanLength,
	}
	for _, tc := range fillBuilders() {
		w, ok := want[tc.name]
		if !ok {
			continue
		}
		if g := groupSizeSetup(t, tc.build); g != w {
			t.Errorf("%s: probed group %d, want %d", tc.name, g, w)
		}
	}
	if m := MaxTxnAccesses(); m != 1+ycsbScanLength {
		t.Errorf("MaxTxnAccesses = %d, want %d", m, 1+ycsbScanLength)
	}
}
