package core

import (
	"testing"

	"demeter/internal/pebs"
)

// drainGVPNs drains c and returns the sample pages in the order handed out.
func drainGVPNs(t *testing.T, c *SampleChannel) []uint64 {
	t.Helper()
	var got []uint64
	n := c.Drain(func(s pebs.Sample) { got = append(got, s.GVPN) })
	if n != len(got) {
		t.Fatalf("Drain returned %d, handed out %d", n, len(got))
	}
	return got
}

// wantSequence fails unless got is first, first+1, ..., first+n-1.
func wantSequence(t *testing.T, got []uint64, first uint64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("drained %d samples, want %d", len(got), n)
	}
	for i, g := range got {
		if g != first+uint64(i) {
			t.Fatalf("sample %d = %d, want %d", i, g, first+uint64(i))
		}
	}
}

func TestChannelFIFO(t *testing.T) {
	c := NewSampleChannel(8)
	for i := uint64(0); i < 5; i++ {
		if !c.Push(pebs.Sample{GVPN: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	wantSequence(t, drainGVPNs(t, c), 0, 5)
	if n := c.Drain(func(pebs.Sample) {}); n != 0 {
		t.Fatalf("drain on empty channel returned %d", n)
	}
}

func TestChannelFullDrops(t *testing.T) {
	c := NewSampleChannel(4)
	for i := uint64(0); i < 4; i++ {
		c.Push(pebs.Sample{GVPN: i})
	}
	if c.Push(pebs.Sample{GVPN: 99}) {
		t.Fatal("push on full channel succeeded")
	}
	if c.Dropped() != 1 {
		t.Fatalf("dropped = %d", c.Dropped())
	}
	// Consuming frees room for new pushes.
	wantSequence(t, drainGVPNs(t, c), 0, 4)
	if !c.Push(pebs.Sample{GVPN: 100}) {
		t.Fatal("push after drain failed")
	}
}

func TestChannelWrapsAround(t *testing.T) {
	c := NewSampleChannel(4)
	for round := uint64(0); round < 10; round++ {
		for i := uint64(0); i < 4; i++ {
			if !c.Push(pebs.Sample{GVPN: round*4 + i}) {
				t.Fatalf("round %d push %d failed", round, i)
			}
		}
		wantSequence(t, drainGVPNs(t, c), round*4, 4)
	}
}

func TestChannelCapacityValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d accepted", n)
				}
			}()
			NewSampleChannel(n)
		}()
	}
}

func TestChannelDrain(t *testing.T) {
	c := NewSampleChannel(16)
	for i := uint64(0); i < 10; i++ {
		c.Push(pebs.Sample{GVPN: i})
	}
	var got []uint64
	n := c.Drain(func(s pebs.Sample) { got = append(got, s.GVPN) })
	if n != 10 || len(got) != 10 {
		t.Fatalf("drain = %d", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len after drain = %d", c.Len())
	}
}

// TestChannelWedge models a wedged consumer (channel.wedge fault): a
// wedged channel drains nothing so it fills and producers start dropping;
// unwedging restores consumption without losing buffered samples.
func TestChannelWedge(t *testing.T) {
	c := NewSampleChannel(4)
	c.Push(pebs.Sample{GVPN: 1})
	c.Wedge()
	if n := c.Drain(func(pebs.Sample) {}); n != 0 || c.Len() != 1 {
		t.Fatalf("wedged drain took %d samples, left %d", n, c.Len())
	}
	// Producers keep pushing; once the channel fills, samples drop.
	for i := uint64(2); i <= 6; i++ {
		c.Push(pebs.Sample{GVPN: i})
	}
	if c.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", c.Dropped())
	}
	c.Unwedge()
	// Buffered samples survive the wedge in order.
	wantSequence(t, drainGVPNs(t, c), 1, 4)

	// The same at the capacity Demeter attaches with.
	c = NewSampleChannel(channelCapacity)
	c.Wedge()
	for i := uint64(0); i < channelCapacity+100; i++ {
		c.Push(pebs.Sample{GVPN: i})
	}
	if c.Dropped() != 100 {
		t.Fatalf("dropped = %d at capacity %d, want 100", c.Dropped(), channelCapacity)
	}
	c.Unwedge()
	wantSequence(t, drainGVPNs(t, c), 0, channelCapacity)
}
