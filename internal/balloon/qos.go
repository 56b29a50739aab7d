package balloon

import (
	"demeter/internal/sim"
)

// Rebalancer is a sample machine-level QoS policy built on the double
// balloon's statistics queue (§3.3): it periodically redistributes a fixed
// host FMEM budget across VMs proportionally to their reported slow-tier
// pressure, weighted by service tier. Demeter itself is policy-agnostic;
// this is the reference policy the qos-rebalance example runs.
type Rebalancer struct {
	// Budget is the total FMEM frames to distribute.
	Budget uint64
	// MinPerVM floors each VM's share (frames).
	MinPerVM uint64
	// SMEMPerVM is each VM's (fixed) slow-tier provision.
	SMEMPerVM uint64

	eng     *sim.Engine
	vms     []*Double
	weights []float64 // service-tier weight per VM
	ticker  *sim.Ticker
	applied []uint64 // shares set by the most recent rebalance

	// Rebalances counts completed redistribution rounds.
	Rebalances uint64
}

// NewRebalancer builds a rebalancer over the given VMs' double balloons.
// weights give each VM's service tier (higher = more entitled); pass nil
// for equal tiers.
func NewRebalancer(eng *sim.Engine, vms []*Double, weights []float64) *Rebalancer {
	if weights == nil {
		weights = make([]float64, len(vms))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(vms) {
		panic("balloon: weights/vms length mismatch")
	}
	return &Rebalancer{eng: eng, vms: vms, weights: weights}
}

// Start begins periodic rebalancing.
func (r *Rebalancer) Start(period sim.Duration) {
	if r.ticker != nil {
		panic("balloon: rebalancer started twice")
	}
	r.ticker = r.eng.StartTicker(period, func(sim.Time) { r.rebalance() })
}

// Stop ends rebalancing.
func (r *Rebalancer) Stop() {
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
}

// Shares returns the FMEM frames assigned by the most recent rebalance
// (or the would-be assignment if none has run yet).
func (r *Rebalancer) Shares() []uint64 {
	if r.applied != nil {
		return append([]uint64(nil), r.applied...)
	}
	return r.computeShares()
}

func (r *Rebalancer) computeShares() []uint64 {
	// Demand score: slow-tier pressure × service weight. VMs that have
	// not reported yet get a neutral score.
	scores := make([]float64, len(r.vms))
	var total float64
	for i, d := range r.vms {
		pressure := 0.5
		if st, ok := d.LatestStats(); ok {
			pressure = 0.1 + st.SlowShare // floor keeps idle VMs alive
		}
		// The conversion rounds the product, so no GOARCH fuses it with
		// the sum below into one multiply-add.
		scores[i] = float64(pressure * r.weights[i])
		total += scores[i]
	}
	shares := make([]uint64, len(r.vms))
	if total == 0 {
		return shares
	}
	spendable := r.Budget - r.MinPerVM*uint64(len(r.vms))
	for i := range shares {
		shares[i] = r.MinPerVM + uint64(float64(spendable)*scores[i]/total)
	}
	return shares
}

func (r *Rebalancer) rebalance() {
	shares := r.computeShares()
	r.applied = append(r.applied[:0], shares...)
	// Shrink first, then grow, so the host FMEM pool never overcommits:
	// grants are issued only after every shrink has settled. The balloon
	// watchdog guarantees shrink callbacks fire even when a guest stalls,
	// so one wedged VM can never block the others' grants forever.
	var shrinks, grows []int
	for i, d := range r.vms {
		current := d.vm.Kernel.Topo.Nodes[0].Frames() - d.FMEM.Held()
		switch {
		case shares[i] < current:
			shrinks = append(shrinks, i)
		case shares[i] > current:
			grows = append(grows, i)
		}
	}
	issueGrows := func() {
		for _, i := range grows {
			r.vms[i].SetProvision(shares[i], r.SMEMPerVM, nil)
		}
	}
	if len(shrinks) == 0 {
		issueGrows()
	} else {
		pending := len(shrinks)
		for _, i := range shrinks {
			r.vms[i].SetProvision(shares[i], r.SMEMPerVM, func() {
				if pending--; pending == 0 {
					issueGrows()
				}
			})
		}
	}
	r.Rebalances++
}
