package workload

import (
	"fmt"

	"demeter/internal/simrand"
)

// GUPS is the hotset variant of the Giga-Updates-Per-Second benchmark
// (§5.2): a table divided into a hot section receiving gupsHotWeight× the
// access rate of the cold section, with uniform random read-modify-write
// transactions inside each section. The hot section is placed away from
// the start of the region so that the sequential init sweep leaves it in
// SMEM — promoting it is the TMM's job.
type GUPS struct {
	// FootprintPages is the table size.
	FootprintPages uint64
	// Ops is the number of update transactions.
	Ops uint64
	// Seed fixes the access stream.
	Seed uint64

	rng       *simrand.Source
	region    uint64
	hotStart  uint64 // page index of hot section start
	hotPages  uint64
	pHot      float64
	remaining uint64
	sweep     initSweep
	gen       func() Access // built once at Setup; Fill is hot
	ready     bool
}

const (
	// gupsHotFraction is the hot section's share of the footprint.
	gupsHotFraction = 0.1
	// gupsHotWeight is the access-rate multiplier of the hot section.
	gupsHotWeight = 10
)

// NewGUPS validates and returns a GUPS workload.
func NewGUPS(footprintPages, ops, seed uint64) (*GUPS, error) {
	if footprintPages < 16 {
		return nil, fmt.Errorf("gups: footprint of %d pages too small (want >= 16)", footprintPages)
	}
	return &GUPS{
		FootprintPages: footprintPages,
		Ops:            ops,
		Seed:           seed,
	}, nil
}

// Name implements Workload.
func (g *GUPS) Name() string { return "gups" }

// TotalOps implements Workload.
func (g *GUPS) TotalOps() uint64 { return g.Ops }

// Setup implements Workload.
func (g *GUPS) Setup(as AddressSpace) {
	g.rng = simrand.New(g.Seed ^ 0x67757073)
	g.region = as.Mmap(g.FootprintPages * 4096)
	g.hotPages = uint64(float64(g.FootprintPages) * gupsHotFraction)
	if g.hotPages == 0 {
		g.hotPages = 1
	}
	// Hot section placed at 50% of the footprint: past the FMEM share the
	// init sweep grabs, so the hot set starts slow-tier resident.
	g.hotStart = g.FootprintPages / 2
	if g.hotStart+g.hotPages > g.FootprintPages {
		g.hotStart = g.FootprintPages - g.hotPages
	}
	const hotMass = gupsHotWeight * gupsHotFraction
	g.pHot = hotMass / (hotMass + (1 - gupsHotFraction))
	g.remaining = g.Ops
	g.sweep.add(g.region, g.FootprintPages)
	g.gen = func() Access {
		var page uint64
		if g.rng.Float64() < g.pHot {
			page = g.hotStart + g.rng.Uint64n(g.hotPages)
		} else {
			// Uniform over the cold section (everything but the hot run).
			p := g.rng.Uint64n(g.FootprintPages - g.hotPages)
			if p >= g.hotStart {
				p += g.hotPages
			}
			page = p
		}
		return Access{GVA: pageGVA(g.region, page), Write: true}
	}
	g.ready = true
}

// Fill implements Workload.
func (g *GUPS) Fill(dst []Access) (int, bool) {
	checkSetup(g.Name(), g.ready)
	return fillLoop(&g.sweep, &g.remaining, dst, g.gen)
}

// HotRange returns the hot section as page indices relative to the region
// start — ground truth for classifier accuracy tests.
func (g *GUPS) HotRange() (startPage, pages uint64) { return g.hotStart, g.hotPages }

// Region returns the table's base address after Setup.
func (g *GUPS) Region() uint64 { return g.region }

// InitOps implements Workload: the sequential table-fill pass.
func (g *GUPS) InitOps() uint64 { return g.sweep.totalPages() }
