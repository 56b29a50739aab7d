package trace

import (
	"bytes"
	"math"
	"testing"

	"demeter/internal/core"
	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// fakeAS mimics the guest process layout deterministically.
type fakeAS struct {
	brk, mmapNext uint64
}

func newFakeAS() *fakeAS {
	return &fakeAS{brk: 0x5555_0000_0000, mmapNext: 0x7ffe_0000_0000}
}

func (f *fakeAS) Brk(b uint64) uint64 {
	s := f.brk
	f.brk += (b + 4095) &^ 4095
	return s
}

func (f *fakeAS) Mmap(b uint64) uint64 {
	size := (b + (2<<20 - 1)) &^ uint64(2<<20-1)
	f.mmapNext -= size
	return f.mmapNext
}

func drainAll(t *testing.T, w workload.Workload) []workload.Access {
	t.Helper()
	var all []workload.Access
	buf := make([]workload.Access, 1000)
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("non-terminating workload")
		}
		n, done := w.Fill(buf)
		all = append(all, buf[:n]...)
		if done {
			return all
		}
	}
}

func TestRoundTripExact(t *testing.T) {
	// Record one GUPS instance, drain an identical one, compare streams.
	var buf bytes.Buffer
	count, err := Record(&buf, workload.Must(workload.NewGUPS(512, 20_000, 3)), newFakeAS())
	if err != nil {
		t.Fatal(err)
	}
	ref := workload.Must(workload.NewGUPS(512, 20_000, 3))
	ref.Setup(newFakeAS())
	want := drainAll(t, ref)
	if count != uint64(len(want)) {
		t.Fatalf("recorded %d, reference %d", count, len(want))
	}

	rp, err := NewReplayer("gups-replay", &buf, count, ref.InitOps())
	if err != nil {
		t.Fatal(err)
	}
	rp.Setup(newFakeAS())
	got := drainAll(t, rp)
	if rp.Err() != nil {
		t.Fatal(rp.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		// Replay is page-granular; compare page+write.
		if got[i].GVA>>12 != want[i].GVA>>12 || got[i].Write != want[i].Write {
			t.Fatalf("access %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestCompactness(t *testing.T) {
	var buf bytes.Buffer
	count, err := Record(&buf, workload.Must(workload.NewSilo(1024, 5_000, 1)), newFakeAS())
	if err != nil {
		t.Fatal(err)
	}
	perAccess := float64(buf.Len()) / float64(count)
	if perAccess > 4 {
		t.Errorf("trace uses %.1f bytes/access; expected compact encoding", perAccess)
	}
}

func TestReplayerInterfaceBookkeeping(t *testing.T) {
	var buf bytes.Buffer
	wl := workload.Must(workload.NewGUPS(256, 1000, 9))
	count, err := Record(&buf, wl, newFakeAS())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer("r", &buf, count, 256)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name() != "r" {
		t.Fatal("name lost")
	}
	if rp.InitOps() != 256 || rp.TotalOps() != count-256 {
		t.Fatalf("ops bookkeeping: init=%d total=%d", rp.InitOps(), rp.TotalOps())
	}
}

func TestReplayDivergentLayoutPanics(t *testing.T) {
	var buf bytes.Buffer
	count, _ := Record(&buf, workload.Must(workload.NewGUPS(256, 100, 1)), newFakeAS())
	rp, err := NewReplayer("r", &buf, count, 0)
	if err != nil {
		t.Fatal(err)
	}
	// An address space that had a prior reservation yields different
	// addresses; replay must refuse.
	as := newFakeAS()
	as.Mmap(4 << 20)
	defer func() {
		if recover() == nil {
			t.Fatal("divergent layout did not panic")
		}
	}()
	rp.Setup(as)
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReplayer("x", bytes.NewReader([]byte("BOGUS")), 0, 0); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReplayer("x", bytes.NewReader(nil), 0, 0); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestFillBeforeSetupPanics(t *testing.T) {
	var buf bytes.Buffer
	count, _ := Record(&buf, workload.Must(workload.NewGUPS(256, 100, 1)), newFakeAS())
	rp, _ := NewReplayer("r", &buf, count, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Fill before Setup did not panic")
		}
	}()
	rp.Fill(make([]workload.Access, 8))
}

// The headline property: a replayed trace behaves identically to the live
// workload inside the full simulator, including under TMM.
func TestReplayMatchesLiveRunExactly(t *testing.T) {
	runOnce := func(wl workload.Workload) sim.Duration {
		eng := sim.NewEngine()
		m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(256, 2048))
		vm, err := m.NewVM(hypervisor.VMConfig{
			VCPUs: 4, GuestFMEM: 256, GuestSMEM: 2048,
			FMEMBacking: 0, SMEMBacking: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		x := engine.NewExecutor(eng, vm, wl)
		cfg := core.DefaultConfig()
		cfg.EpochPeriod = 2 * sim.Millisecond
		cfg.SamplePeriod = 17
		cfg.Params.GranularityPages = 16
		d := core.New(cfg)
		d.Attach(eng, vm)
		defer d.Detach()
		if !engine.RunAll(eng, 100*sim.Second, x) {
			t.Fatal("did not finish")
		}
		return x.Runtime()
	}

	live := runOnce(workload.Must(workload.NewGUPS(1024, 100_000, 5)))

	var buf bytes.Buffer
	orig := workload.Must(workload.NewGUPS(1024, 100_000, 5))
	count, err := Record(&buf, orig, newFakeAS())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer("gups", &buf, count, orig.InitOps())
	if err != nil {
		t.Fatal(err)
	}
	replayed := runOnce(rp)
	if rp.Err() != nil {
		t.Fatal(rp.Err())
	}
	if live != replayed {
		t.Fatalf("replay runtime %v differs from live %v", replayed, live)
	}
}

// recordGood records a short GUPS trace to corrupt.
func recordGood(tb testing.TB) ([]byte, uint64) {
	tb.Helper()
	var good bytes.Buffer
	count, err := Record(&good, workload.Must(workload.NewGUPS(256, 5_000, 2)), newFakeAS())
	if err != nil {
		tb.Fatal(err)
	}
	return good.Bytes(), count
}

type corruptCase struct {
	name string
	data []byte
	// wantHeaderErr: NewReplayer itself must fail. Otherwise the
	// replayer must construct, then report the damage via Err().
	wantHeaderErr bool
}

// corruptCases derives malformed streams from a known-good trace.
func corruptCases(good []byte) []corruptCase {
	return []corruptCase{
		{name: "empty", data: nil, wantHeaderErr: true},
		{name: "short magic", data: []byte("DM"), wantHeaderErr: true},
		{name: "bad magic", data: append([]byte("XXXX"), good[4:]...), wantHeaderErr: true},
		{name: "wrong version", data: func() []byte {
			d := append([]byte(nil), good...)
			d[4] = 99 // version uvarint follows the 4-byte magic
			return d
		}(), wantHeaderErr: true},
		{name: "truncated header", data: good[:7], wantHeaderErr: true},
		// Magic, version 1, one region of kind 'x', 1 byte at address 0.
		{name: "bad region kind", data: append([]byte(magic), version, 1, 'x', 1, 0), wantHeaderErr: true},
		{name: "truncated mid-stream", data: good[:len(good)/2]},
		{name: "truncated mid-varint", data: good[:len(good)-1]},
	}
}

// TestCorruptInputs drives the replayer through malformed streams: every
// variant must surface an error (construction failure or Err() after the
// stream stops) without panicking.
func TestCorruptInputs(t *testing.T) {
	good, count := recordGood(t)
	for _, tc := range corruptCases(good) {
		t.Run(tc.name, func(t *testing.T) {
			rp, err := NewReplayer("corrupt", bytes.NewReader(tc.data), count, 0)
			if tc.wantHeaderErr {
				if err == nil {
					t.Fatal("NewReplayer accepted a corrupt header")
				}
				return
			}
			if err != nil {
				t.Fatalf("header parse failed unexpectedly: %v", err)
			}
			rp.Setup(newFakeAS())
			// Drain; the stream must terminate (done=true) despite damage.
			buf := make([]workload.Access, 512)
			for i := 0; ; i++ {
				if i > 1_000_000 {
					t.Fatal("corrupt stream never terminated")
				}
				if _, done := rp.Fill(buf); done {
					break
				}
			}
			if rp.Err() == nil {
				t.Fatal("truncated stream drained without Err()")
			}
		})
	}
}

// layoutAS returns a recorded layout: its i-th reservation, Brk or Mmap,
// starts at the i-th recorded address.
type layoutAS struct{ starts []uint64 }

func (a *layoutAS) Brk(uint64) uint64  { return a.next() }
func (a *layoutAS) Mmap(uint64) uint64 { return a.next() }

func (a *layoutAS) next() uint64 {
	s := a.starts[0]
	a.starts = a.starts[1:]
	return s
}

// FuzzNewReplayer feeds arbitrary bytes to the replayer, as `tracer replay
// -in FILE` does. NewReplayer must never panic; for a header it accepts,
// Setup over an address space that reproduces the recorded layout must not
// panic either, and the Fill loop must terminate.
func FuzzNewReplayer(f *testing.F) {
	good, _ := recordGood(f)
	f.Add(good)
	for _, tc := range corruptCases(good) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := NewReplayer("fuzz", bytes.NewReader(data), math.MaxUint64, 0)
		if err != nil {
			return
		}
		as := &layoutAS{}
		for _, r := range rp.regions {
			as.starts = append(as.starts, r.Start)
		}
		rp.Setup(as)
		// Every access takes at least one byte, so a full 512-access
		// batch consumes at least 512 bytes of data.
		buf := make([]workload.Access, 512)
		for i := 0; ; i++ {
			if i > len(data)/len(buf)+1 {
				t.Fatalf("Fill still running after %d calls on %d bytes", i, len(data))
			}
			if _, done := rp.Fill(buf); done {
				break
			}
		}
	})
}
