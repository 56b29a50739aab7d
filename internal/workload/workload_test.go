package workload

import (
	"testing"

	"demeter/internal/mem"
)

// fakeAS implements AddressSpace with simple bump allocation.
type fakeAS struct {
	brk, mmapNext uint64
}

func newFakeAS() *fakeAS {
	return &fakeAS{brk: 0x5555_0000_0000, mmapNext: 0x7ffe_0000_0000}
}

func (f *fakeAS) Brk(bytes uint64) uint64 {
	start := f.brk
	f.brk += (bytes + 4095) &^ 4095
	return start
}

func (f *fakeAS) Mmap(bytes uint64) uint64 {
	size := (bytes + (2<<20 - 1)) &^ uint64(2<<20-1)
	f.mmapNext -= size
	return f.mmapNext
}

// drain pulls all accesses from a workload, failing the test on
// non-termination.
func drain(t *testing.T, w Workload, batch int) []Access {
	t.Helper()
	var all []Access
	buf := make([]Access, batch)
	for iter := 0; ; iter++ {
		if iter > 1_000_000 {
			t.Fatal("workload did not terminate")
		}
		n, done := w.Fill(buf)
		all = append(all, buf[:n]...)
		if done {
			return all
		}
		if n == 0 {
			t.Fatal("Fill returned (0, false)")
		}
	}
}

// counts accesses per page within [start, start+pages).
func pageCounts(accs []Access, start, pages uint64) []uint64 {
	out := make([]uint64, pages)
	for _, a := range accs {
		p := (a.GVA - start) / mem.PageSize
		if a.GVA >= start && p < pages {
			out[p]++
		}
	}
	return out
}

func TestAllWorkloadsTerminateAndStayInBounds(t *testing.T) {
	builders := []func() Workload{
		func() Workload { return Must(NewGUPS(1024, 5000, 1)) },
		func() Workload { return Must(NewBTree(4096, 2000, 1)) },
		func() Workload { return Must(NewXSBench(2048, 2000, 1)) },
		func() Workload { return Must(NewLibLinear(2048, 5000, 1)) },
		func() Workload { return Must(NewBwaves(512, 5000, 1)) },
		func() Workload { return Must(NewSilo(2048, 1000, 1)) },
		func() Workload { return Must(NewGraph500(512, 2000, 1)) },
		func() Workload { return Must(NewPageRank(1024, 2000, 1)) },
	}
	for _, build := range builders {
		w := build()
		as := newFakeAS()
		lowMmap := as.mmapNext
		w.Setup(as)
		accs := drain(t, w, 509) // odd batch size exercises partial fills
		if len(accs) == 0 {
			t.Errorf("%s produced no accesses", w.Name())
		}
		for _, a := range accs {
			inHeap := a.GVA >= 0x5555_0000_0000 && a.GVA < as.brk
			inMmap := a.GVA >= as.mmapNext && a.GVA < lowMmap
			if !inHeap && !inMmap {
				t.Fatalf("%s access %#x outside its regions", w.Name(), a.GVA)
			}
		}
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	mk := func() []Access {
		w := Must(NewSilo(2048, 500, 42))
		w.Setup(newFakeAS())
		return drain(t, w, 256)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestFillBeforeSetupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill before Setup did not panic")
		}
	}()
	Must(NewGUPS(1024, 10, 1)).Fill(make([]Access, 8))
}

func TestGUPSInitSweepIsSequential(t *testing.T) {
	w := Must(NewGUPS(256, 100, 1))
	w.Setup(newFakeAS())
	accs := drain(t, w, 128)
	for i := 0; i < 256; i++ {
		want := w.Region() + uint64(i)*mem.PageSize
		if accs[i].GVA != want || !accs[i].Write {
			t.Fatalf("init access %d = %+v, want write at %#x", i, accs[i], want)
		}
	}
	if len(accs) != 256+100 {
		t.Fatalf("total accesses = %d, want init 256 + ops 100", len(accs))
	}
}

func TestGUPSHotSectionDominates(t *testing.T) {
	w := Must(NewGUPS(1000, 200000, 7))
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)[1000:] // skip init
	counts := pageCounts(accs, w.Region(), 1000)
	hotStart, hotPages := w.HotRange()
	var hotSum, coldSum uint64
	for p, c := range counts {
		if uint64(p) >= hotStart && uint64(p) < hotStart+hotPages {
			hotSum += c
		} else {
			coldSum += c
		}
	}
	hotRate := float64(hotSum) / float64(hotPages)
	coldRate := float64(coldSum) / float64(1000-hotPages)
	ratio := hotRate / coldRate
	if ratio < 8 || ratio > 12 {
		t.Fatalf("hot/cold per-page rate ratio = %.1f, want ~10", ratio)
	}
}

func TestBTreeRootIsHottest(t *testing.T) {
	w := Must(NewBTree(4096, 20000, 3))
	as := newFakeAS()
	w.Setup(as)
	accs := drain(t, w, 4096)
	// Root level was allocated first on the heap.
	root := w.levels[0]
	if root.pages != 1 {
		t.Fatalf("root level pages = %d", root.pages)
	}
	counts := pageCounts(accs, root.start, 1)
	// Root is touched once per lookup plus once at init.
	if counts[0] != 20001 {
		t.Fatalf("root touches = %d, want 20001", counts[0])
	}
}

func TestXSBenchIndexIsStaticHotspot(t *testing.T) {
	w := Must(NewXSBench(2048, 20000, 5))
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)
	idxStart, idxPages := w.HotRegion()
	idx := pageCounts(accs, idxStart, idxPages)
	var idxSum uint64
	for _, c := range idx {
		idxSum += c
	}
	idxRate := float64(idxSum) / float64(idxPages)
	dataRate := float64(3*20000) / float64(w.DataPages)
	if idxRate < 5*dataRate {
		t.Fatalf("index rate %.1f not ≫ data rate %.1f", idxRate, dataRate)
	}
}

func TestSiloHotspotShifts(t *testing.T) {
	w := Must(NewSilo(4096, 10000, 9))
	w.Setup(newFakeAS())
	firstPos := w.hotPos
	accs := drain(t, w, 4096)
	if w.hotPos == firstPos {
		t.Fatal("hot window never moved")
	}
	// Transactions come in groups of TxnAccesses.
	main := len(accs) - int(w.TablePages)
	if main != 10000*w.TxnAccesses() {
		t.Fatalf("main accesses = %d", main)
	}
}

func TestSiloWriteMix(t *testing.T) {
	w := Must(NewSilo(2048, 5000, 11))
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)[2048:]
	writes := 0
	for _, a := range accs {
		if a.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(accs))
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("write fraction = %.2f, want ~0.25", frac)
	}
}

func TestGraph500PowerLawScattered(t *testing.T) {
	w := Must(NewGraph500(512, 50000, 13))
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)
	counts := pageCounts(accs, w.vertexStart, w.VertexPages)
	// Sort a copy to find the top pages' share.
	var total, top uint64
	max := make([]uint64, len(counts))
	copy(max, counts)
	for _, c := range counts {
		total += c
	}
	// Selection of top 5%: simple threshold pass.
	for i := 0; i < len(max); i++ {
		for j := i + 1; j < len(max); j++ {
			if max[j] > max[i] {
				max[i], max[j] = max[j], max[i]
			}
		}
		if i >= len(max)/20 {
			break
		}
	}
	for i := 0; i < len(max)/20; i++ {
		top += max[i]
	}
	if float64(top)/float64(total) < 0.3 {
		t.Fatalf("top-5%% vertex pages hold %.2f of accesses, want power-law skew", float64(top)/float64(total))
	}
	// Scattering: the hottest page must not be page 0 (rank 0 is hashed).
	hottest := 0
	for i, c := range counts {
		if c > counts[hottest] {
			hottest = i
		}
	}
	if hottest == 0 {
		t.Fatal("hot vertices not scattered")
	}
}

func TestBwavesIsUniform(t *testing.T) {
	w := Must(NewBwaves(256, 3*256*4, 15)) // four full sweeps
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)
	counts := pageCounts(accs, w.starts[0], w.ArrayPages)
	for p, c := range counts {
		if c < 4 || c > 6 { // init(1) + 4 sweeps, ±1 boundary
			t.Fatalf("page %d count %d; bwaves should be uniform", p, c)
		}
	}
}

func TestLibLinearWeightsHot(t *testing.T) {
	w := Must(NewLibLinear(2048, 40000, 17))
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)
	ws, wp := w.HotRegion()
	counts := pageCounts(accs, ws, wp)
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	perPage := float64(sum) / float64(wp)
	featPerPage := float64(20000) / float64(w.FeaturePages)
	if perPage < 10*featPerPage {
		t.Fatalf("weight pages %.1f/page vs features %.1f/page: weights should be far hotter", perPage, featPerPage)
	}
}

func TestTransactionalInterface(t *testing.T) {
	var w Workload = Must(NewSilo(2048, 10, 1))
	tx, ok := w.(Transactional)
	if !ok || tx.TxnAccesses() != 8 {
		t.Fatal("Silo must be Transactional with 8 accesses per txn")
	}
	if _, ok := Workload(Must(NewGUPS(1024, 10, 1))).(Transactional); ok {
		t.Fatal("GUPS should not be Transactional")
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"gups", func() error { _, err := NewGUPS(1, 1, 1); return err }()},
		{"btree", func() error { _, err := NewBTree(1, 1, 1); return err }()},
		{"xsbench", func() error { _, err := NewXSBench(1, 1, 1); return err }()},
		{"liblinear", func() error { _, err := NewLibLinear(1, 1, 1); return err }()},
		{"bwaves", func() error { _, err := NewBwaves(1, 1, 1); return err }()},
		{"silo", func() error { _, err := NewSilo(1, 1, 1); return err }()},
		{"graph500", func() error { _, err := NewGraph500(1, 1, 1); return err }()},
		{"pagerank", func() error { _, err := NewPageRank(1, 1, 1); return err }()},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s constructor accepted a degenerate size", tc.name)
		}
	}
}

func TestMustPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must did not panic on a constructor error")
		}
	}()
	Must(NewGUPS(1, 1, 1))
}

func TestYCSBMixes(t *testing.T) {
	for _, tc := range []struct {
		mix        YCSBMix
		wantWrites bool
	}{
		{YCSBA, true},
		{YCSBB, true},
		{YCSBC, false},
	} {
		w := Must(NewYCSB(2048, 20000, 5, tc.mix))
		w.Setup(newFakeAS())
		accs := drain(t, w, 4096)[2048+64:] // skip init
		writes := 0
		for _, a := range accs {
			if a.Write {
				writes++
			}
		}
		frac := float64(writes) / float64(len(accs))
		want := tc.mix.UpdateFrac / 2 // writes are the record half of an op
		if frac < want-0.03 || frac > want+0.03 {
			t.Errorf("mix %+v: write frac %.3f, want ~%.3f", tc.mix, frac, want)
		}
		if (writes > 0) != tc.wantWrites {
			t.Errorf("mix %+v: writes=%d", tc.mix, writes)
		}
	}
}

func TestYCSBZipfianSkewScattered(t *testing.T) {
	w := Must(NewYCSB(1024, 50000, 9, YCSBC))
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)
	counts := pageCounts(accs, w.recordStart, w.RecordPages)
	hottest, hotIdx := uint64(0), 0
	var total uint64
	for i, c := range counts {
		total += c
		if c > hottest {
			hottest, hotIdx = c, i
		}
	}
	if float64(hottest)/float64(total) < 0.01 {
		t.Error("no zipfian skew visible")
	}
	if hotIdx == 0 {
		t.Error("hot keys not scattered")
	}
}

func TestYCSBScanMixWidth(t *testing.T) {
	w := Must(NewYCSB(1024, 1000, 3, YCSBE))
	if w.TxnAccesses() != 1+ycsbScanLength {
		t.Fatalf("scan mix width = %d", w.TxnAccesses())
	}
	w.Setup(newFakeAS())
	accs := drain(t, w, 4096)
	main := len(accs) - int(w.InitOps())
	if main != 1000*w.TxnAccesses() {
		t.Fatalf("main accesses = %d, want %d", main, 1000*w.TxnAccesses())
	}
}

func TestYCSBValidation(t *testing.T) {
	if _, err := NewYCSB(8, 1, 1, YCSBA); err == nil {
		t.Error("undersized YCSB record space accepted")
	}
	if _, err := NewYCSB(1024, 1, 1, YCSBMix{ReadFrac: 0.3}); err == nil {
		t.Error("YCSB mix not summing to 1 accepted")
	}
	if _, err := NewYCSB(1024, 1, 1, YCSBMix{ReadFrac: 1.5, UpdateFrac: -0.5}); err == nil {
		t.Error("negative YCSB mix fraction accepted")
	}
}
