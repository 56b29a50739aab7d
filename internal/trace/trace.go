// Package trace records and replays workload access streams. A recorded
// trace captures the exact page-level reference string of a generator,
// which makes cross-design comparisons airtight (every design sees the
// identical stream), lets experiments re-run without regenerating
// workloads, and provides a bridge for importing externally captured
// traces into the simulator.
//
// The format is a compact binary stream: a header with the address-space
// layout (so Setup can reproduce identical virtual addresses), followed by
// zigzag-varint page deltas with the write flag folded into the low bit.
// Hot workloads have small deltas, so real traces compress to ~1-2 bytes
// per access before any external compression.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"demeter/internal/workload"
)

const (
	magic   = "DMTR"
	version = 1
)

// regionRecord describes one reserved VMA in the header.
type regionRecord struct {
	Kind  byte // 'h' = heap (Brk), 'm' = mmap
	Bytes uint64
	Start uint64 // address the recorder observed; replay asserts equality
}

// Record drains wl (which must not have been Setup yet) through the given
// address space and writes its full access stream to w. It returns the
// number of accesses recorded.
//
// The AddressSpace handed in is typically a fresh guest process identical
// to the one replay will use, so the virtual addresses in the trace are
// reproducible.
func Record(w io.Writer, wl workload.Workload, as workload.AddressSpace) (uint64, error) {
	rec := &recordingAS{inner: as}
	wl.Setup(rec)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return 0, err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(version); err != nil {
		return 0, err
	}
	if err := putUvarint(uint64(len(rec.regions))); err != nil {
		return 0, err
	}
	for _, r := range rec.regions {
		if err := bw.WriteByte(r.Kind); err != nil {
			return 0, err
		}
		if err := putUvarint(r.Bytes); err != nil {
			return 0, err
		}
		if err := putUvarint(r.Start); err != nil {
			return 0, err
		}
	}

	var count uint64
	var prevPage uint64
	buf := make([]workload.Access, 4096)
	for {
		n, done := wl.Fill(buf)
		for i := 0; i < n; i++ {
			page := buf[i].GVA >> 12
			delta := zigzag(int64(page) - int64(prevPage))
			prevPage = page
			word := delta << 1
			if buf[i].Write {
				word |= 1
			}
			if err := putUvarint(word); err != nil {
				return count, err
			}
			count++
		}
		if done {
			break
		}
	}
	return count, bw.Flush()
}

// recordingAS observes the layout calls a workload makes during Setup.
type recordingAS struct {
	inner   workload.AddressSpace
	regions []regionRecord
}

func (r *recordingAS) Brk(bytes uint64) uint64 {
	start := r.inner.Brk(bytes)
	r.regions = append(r.regions, regionRecord{Kind: 'h', Bytes: bytes, Start: start})
	return start
}

func (r *recordingAS) Mmap(bytes uint64) uint64 {
	start := r.inner.Mmap(bytes)
	r.regions = append(r.regions, regionRecord{Kind: 'm', Bytes: bytes, Start: start})
	return start
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Replayer plays a recorded trace back as a workload.Workload. It
// re-reserves the recorded regions at Setup and fails loudly if the
// resulting layout differs from the recording (replays must be
// bit-identical).
type Replayer struct {
	name    string
	regions []regionRecord
	br      *bufio.Reader
	prev    uint64
	total   uint64
	played  uint64
	done    bool
	err     error
	ready   bool
	initOps uint64
}

// NewReplayer parses the trace header from r. total must be the recorded
// access count (returned by Record); initOps is forwarded to executors for
// transaction accounting (pass the original workload's InitOps).
func NewReplayer(name string, r io.Reader, total, initOps uint64) (*Replayer, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic")
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	nRegions, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	rp := &Replayer{name: name, br: br, total: total, initOps: initOps}
	for i := uint64(0); i < nRegions; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if kind != 'h' && kind != 'm' {
			return nil, fmt.Errorf("trace: region %d has unknown kind %q", i, kind)
		}
		bytes, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		start, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		rp.regions = append(rp.regions, regionRecord{Kind: kind, Bytes: bytes, Start: start})
	}
	return rp, nil
}

// Name implements workload.Workload.
func (rp *Replayer) Name() string { return rp.name }

// TotalOps implements workload.Workload.
func (rp *Replayer) TotalOps() uint64 {
	if rp.total < rp.initOps {
		return rp.total
	}
	return rp.total - rp.initOps
}

// InitOps implements workload.Workload.
func (rp *Replayer) InitOps() uint64 { return rp.initOps }

// Err returns the first decode error, if any (Fill stops the stream on
// decode errors; executors see a normal completion).
func (rp *Replayer) Err() error { return rp.err }

// Setup implements workload.Workload: re-reserve the recorded layout.
func (rp *Replayer) Setup(as workload.AddressSpace) {
	for _, r := range rp.regions {
		var start uint64
		if r.Kind == 'h' { // NewReplayer admits only 'h' and 'm'
			start = as.Brk(r.Bytes)
		} else {
			start = as.Mmap(r.Bytes)
		}
		if start != r.Start {
			panic(fmt.Sprintf("trace: replay layout diverged: region at %#x, recorded %#x", start, r.Start))
		}
	}
	rp.ready = true
}

// Fill implements workload.Workload.
func (rp *Replayer) Fill(dst []workload.Access) (int, bool) {
	if !rp.ready {
		panic("trace: Fill before Setup")
	}
	if rp.done {
		return 0, true
	}
	n := 0
	for n < len(dst) && rp.played < rp.total {
		word, err := binary.ReadUvarint(rp.br)
		if err != nil {
			rp.err = err
			rp.done = true
			return n, true
		}
		delta := unzigzag(word >> 1)
		page := uint64(int64(rp.prev) + delta)
		rp.prev = page
		dst[n] = workload.Access{GVA: page << 12, Write: word&1 == 1}
		n++
		rp.played++
	}
	if rp.played >= rp.total {
		rp.done = true
	}
	return n, rp.done
}
