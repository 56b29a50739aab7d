package policy

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/damon"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/tmm"
	"demeter/internal/track"
)

// integrated adapts the designs that bundle their own tracking —
// internal/tmm's five baselines, core.Demeter and the DAMON-based
// policy — to the tracker × policy interface. The tracker argument is
// ignored: these designs ARE a tracker+policy pairing fused by
// construction, which is exactly the coupling this package exists to
// contrast with. The design itself refuses a second attach.
type integrated struct{ tmm.Policy }

// newIntegrated maps the generic policy Config onto each design's own
// knobs (Period → its dominant cadence, a set MigrationBatch → its batch)
// and validates at construction what the designs' Attach methods would
// otherwise refuse only at attach time. New has already defaulted
// Period.
func newIntegrated(cfg Config) (Policy, error) {
	var inner tmm.Policy
	switch cfg.Kind {
	case "static":
		inner = tmm.NewStatic()
	case "tpp":
		inner = tmm.NewTPP(cfg.scanConfig(tmm.DefaultScanConfig()))
	case "tpp-h":
		inner = tmm.NewTPPH(cfg.scanConfig(tmm.DefaultScanConfig()))
	case "memtis":
		c := tmm.DefaultMemtisConfig()
		c.ClassifyPeriod = cfg.Period
		c.PollPeriod = max(cfg.Period/10, 1)
		if cfg.MigrationBatch != 0 {
			c.MigrationBatch = cfg.MigrationBatch
		}
		if cfg.HotThreshold != 0 {
			if cfg.HotThreshold < 0 {
				return nil, fmt.Errorf("policy: negative hot threshold %v", cfg.HotThreshold)
			}
			c.HotThreshold = cfg.HotThreshold
		}
		inner = tmm.NewMemtis(c)
	case "nomad":
		inner = tmm.NewNomad(cfg.scanConfig(tmm.DefaultScanConfig()))
	case "vtmm":
		inner = tmm.NewVTMM(cfg.scanConfig(tmm.DefaultVTMMConfig()))
	case "demeter":
		c := core.DefaultConfig()
		c.EpochPeriod = cfg.Period
		if cfg.MigrationBatch != 0 {
			c.MigrationBatch = cfg.MigrationBatch
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		inner = core.New(c)
	case "damon":
		dcfg := damon.DefaultConfig()
		dcfg.AggregationInterval = cfg.Period
		dcfg.SamplingInterval = max(cfg.Period/20, 1)
		hotBar := uint32(defaultHotThreshold)
		if cfg.HotThreshold > 0 {
			hotBar = uint32(cfg.HotThreshold)
		}
		batch := cfg.MigrationBatch
		if batch == 0 {
			batch = defaultMigrationCap
		}
		p, err := damon.NewPolicy(dcfg, hotBar, batch)
		if err != nil {
			return nil, fmt.Errorf("policy: damon: %w", err)
		}
		inner = p
	default:
		return nil, fmt.Errorf("policy: unknown policy kind %q (want one of %v)", cfg.Kind, Kinds())
	}
	return integrated{inner}, nil
}

// scanConfig maps Period onto a scanning design's cadence and a set
// MigrationBatch onto its batch, keeping def's scan bound.
func (cfg Config) scanConfig(def tmm.ScanConfig) tmm.ScanConfig {
	def.ScanPeriod = cfg.Period
	if cfg.MigrationBatch != 0 {
		def.MigrationBatch = cfg.MigrationBatch
	}
	return def
}

// Attach implements Policy.
func (a integrated) Attach(eng *sim.Engine, vm *hypervisor.VM, _ track.Tracker) error {
	return a.Policy.Attach(eng, vm)
}
