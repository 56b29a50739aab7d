// Package daemon is demeter-sim's serve mode: a memtierd-style
// interactive daemon that runs an open-ended tiered-memory simulation
// under a live workload stream. A JSON config declares the host, the
// VMs and — per VM — one tracker × one policy pairing from
// internal/track and internal/policy; a line-oriented command loop then
// drives simulated time (`run 50ms`), inspects placement (`stats`,
// `policy -dump accessed 0,1ms,10ms,0` idle-age histograms rendered
// from internal/obs), and reshapes the cluster live (`tracker switch`,
// `vm add`, `vm remove`).
//
// Everything is deterministic: the daemon runs on simulated time with
// seed-derived scheduling only, so one config plus one command script
// replays to a byte-identical transcript at any host parallelism. And
// everything on the config and command paths returns errors — a typo in
// a config file or a bad command argument must never panic a serve
// session.
package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"demeter/internal/mem"
	"demeter/internal/policy"
	"demeter/internal/sim"
	"demeter/internal/track"
	"demeter/internal/workload"
)

// TrackerSpec selects a tracker in a serve config. Durations are
// strings ("500us", "2ms") so configs read naturally.
type TrackerSpec struct {
	// Kind is one of track.Kinds(): "abit", "damon", "idlepage",
	// "pebs". Empty means no tracker (only valid with an integrated
	// policy, which bundles its own tracking).
	Kind string `json:"kind"`
	// Period is the tracker cadence ("" = kind default).
	Period string `json:"period,omitempty"`
	// SamplePeriod is the PEBS sampling period (pebs kind only).
	SamplePeriod uint64 `json:"sample_period,omitempty"`
	// ScanBatch bounds pages visited per scan round (abit/idlepage).
	ScanBatch int `json:"scan_batch,omitempty"`
}

// PolicySpec selects a policy in a serve config.
type PolicySpec struct {
	// Kind is one of policy.Kinds(): a tracker-driven kind ("heat",
	// "age", "threshold", "ranked") or an integrated design.
	Kind string `json:"kind"`
	// Period is the classify-and-migrate cadence ("" = kind default).
	Period string `json:"period,omitempty"`
	// MigrationBatch caps page moves per round (0 = default).
	MigrationBatch int `json:"migration_batch,omitempty"`
	// HotThreshold classifies a page hot (threshold/memtis kinds).
	HotThreshold float64 `json:"hot_threshold,omitempty"`
	// ActiveWithin promotes pages seen at most this long ago (age).
	ActiveWithin string `json:"active_within,omitempty"`
	// IdleAfter demotes pages idle at least this long (age).
	IdleAfter string `json:"idle_after,omitempty"`
}

// VMSpec declares one guest: its workload stream, sizing and the
// tracker × policy pairing that manages its pages.
type VMSpec struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// FootprintPages sizes the workload's resident set.
	FootprintPages uint64 `json:"footprint_pages"`
	// Ops bounds the workload; 0 means open-ended (the stream outlives
	// any serve session, like a real daemon's workloads outlive it).
	Ops  uint64 `json:"ops,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// VCPUs defaults to 4.
	VCPUs int `json:"vcpus,omitempty"`
	// FMEMFrames / SMEMFrames size the guest's tiers.
	FMEMFrames uint64 `json:"fmem_frames"`
	SMEMFrames uint64 `json:"smem_frames"`

	Tracker TrackerSpec `json:"tracker"`
	Policy  PolicySpec  `json:"policy"`
}

// Config is the serve daemon's top-level JSON document.
type Config struct {
	// Seed derives every internal random stream; the same seed and
	// script replay byte-identically.
	Seed uint64 `json:"seed,omitempty"`
	// Tier picks the slow-tier medium: "pmem" (default) or "cxl".
	Tier string `json:"tier,omitempty"`
	// HostFMEMFrames / HostSMEMFrames size the host's tiers.
	HostFMEMFrames uint64 `json:"host_fmem_frames"`
	HostSMEMFrames uint64 `json:"host_smem_frames"`
	// Quantum is the step `run` advances when no duration is given
	// ("" = 10ms).
	Quantum string `json:"quantum,omitempty"`
	// Defaults is the template `vm add` fills missing fields from.
	Defaults VMSpec `json:"defaults,omitempty"`
	// VMs boot with the daemon.
	VMs []VMSpec `json:"vms"`
}

// openEndedOps is the op budget meaning "never finishes" (Ops == 0).
const openEndedOps = 1 << 40

// ParseConfig strictly decodes a serve config: unknown keys are errors
// (a typo must not silently become a default), and every declared value
// is validated before any simulation state exists.
func ParseConfig(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("daemon: config: %w", err)
	}
	if err := c.validate(); err != nil {
		return c, err
	}
	return c, nil
}

// LoadConfig reads and parses a serve config file.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: config: %w", err)
	}
	defer f.Close()
	return ParseConfig(f)
}

func (c Config) validate() error {
	if _, err := mem.PaperTopology(c.Tier); err != nil {
		return fmt.Errorf("daemon: config: %w", err)
	}
	if c.HostFMEMFrames == 0 || c.HostSMEMFrames == 0 {
		return fmt.Errorf("daemon: config: host_fmem_frames and host_smem_frames must be positive")
	}
	if _, err := parseOptionalDuration(c.Quantum, defaultQuantum); err != nil {
		return fmt.Errorf("daemon: config: quantum: %w", err)
	}
	if len(c.VMs) == 0 {
		return fmt.Errorf("daemon: config: no vms declared")
	}
	names := make(map[string]bool, len(c.VMs))
	for i, v := range c.VMs {
		if v.Name == "" {
			return fmt.Errorf("daemon: config: vms[%d] has no name", i)
		}
		if names[v.Name] {
			return fmt.Errorf("daemon: config: duplicate vm name %q", v.Name)
		}
		names[v.Name] = true
	}
	return nil
}

// defaultQuantum is the `run` step when the command names no duration.
const defaultQuantum = 10 * sim.Millisecond

// parseDuration parses a simulated duration like "250ns", "10us",
// "1.5ms" or "2s" ("0" is accepted bare). It exists because sim.Duration
// is not time.Duration and serve configs should read like memtierd's.
func parseDuration(s string) (sim.Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty duration")
	}
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  sim.Duration
	}{
		{"ns", sim.Nanosecond},
		{"us", sim.Microsecond},
		{"µs", sim.Microsecond},
		{"ms", sim.Millisecond},
		{"s", sim.Second},
	}
	for _, u := range units {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSuffix(s, u.suffix)
		// "ms" also ends in "s"; only accept when the number parses.
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue
		}
		if v < 0 {
			return 0, fmt.Errorf("negative duration %q", s)
		}
		return sim.Duration(v * float64(u.scale)), nil
	}
	return 0, fmt.Errorf("bad duration %q (want e.g. 500ns, 10us, 1.5ms, 2s)", s)
}

// parseOptionalDuration maps "" to a default.
func parseOptionalDuration(s string, def sim.Duration) (sim.Duration, error) {
	if strings.TrimSpace(s) == "" {
		return def, nil
	}
	return parseDuration(s)
}

// formatSeconds renders a simulated duration in seconds for the
// idle-age table (memtierd's tables are denominated in seconds).
func formatSeconds(d sim.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(sim.Second), 'g', -1, 64)
}

// workloadNames lists the selectable serve workloads in deterministic
// order.
func workloadNames() []string {
	return []string{
		"btree", "bwaves", "graph500", "gups", "liblinear", "pagerank",
		"silo", "xsbench", "ycsb-a", "ycsb-b", "ycsb-c", "ycsb-e",
	}
}

// newWorkload builds a named workload. pages sizes the footprint, ops 0
// means open-ended.
func newWorkload(name string, pages, ops, seed uint64) (workload.Workload, error) {
	if pages == 0 {
		return nil, fmt.Errorf("daemon: workload %q: footprint_pages must be positive", name)
	}
	if ops == 0 {
		ops = openEndedOps
	}
	wrap := func(w workload.Workload, err error) (workload.Workload, error) {
		if err != nil {
			return nil, fmt.Errorf("daemon: workload %q: %w", name, err)
		}
		return w, nil
	}
	switch name {
	case "gups":
		return wrap(workload.NewGUPS(pages, ops, seed))
	case "btree":
		return wrap(workload.NewBTree(pages, ops, seed))
	case "xsbench":
		return wrap(workload.NewXSBench(pages, ops, seed))
	case "liblinear":
		return wrap(workload.NewLibLinear(pages, ops, seed))
	case "bwaves":
		return wrap(workload.NewBwaves(pages, ops, seed))
	case "silo":
		return wrap(workload.NewSilo(pages, ops, seed))
	case "graph500":
		return wrap(workload.NewGraph500(pages, ops, seed))
	case "pagerank":
		return wrap(workload.NewPageRank(pages, ops, seed))
	case "ycsb-a":
		return wrap(workload.NewYCSB(pages, ops, seed, workload.YCSBA))
	case "ycsb-b":
		return wrap(workload.NewYCSB(pages, ops, seed, workload.YCSBB))
	case "ycsb-c":
		return wrap(workload.NewYCSB(pages, ops, seed, workload.YCSBC))
	case "ycsb-e":
		return wrap(workload.NewYCSB(pages, ops, seed, workload.YCSBE))
	default:
		return nil, fmt.Errorf("daemon: unknown workload %q (want one of %v)", name, workloadNames())
	}
}

// trackConfig converts a TrackerSpec to a track.Config, deriving the
// tracker's seed from the VM seed so twin configs replay identically.
func (t TrackerSpec) trackConfig(vmSeed uint64) (track.Config, error) {
	period, err := parseOptionalDuration(t.Period, 0)
	if err != nil {
		return track.Config{}, fmt.Errorf("daemon: tracker period: %w", err)
	}
	return track.Config{
		Kind:         t.Kind,
		Period:       period,
		SamplePeriod: t.SamplePeriod,
		ScanBatch:    t.ScanBatch,
		Seed:         vmSeed + 1,
	}, nil
}

// policyConfig converts a PolicySpec to a policy.Config.
func (p PolicySpec) policyConfig() (policy.Config, error) {
	period, err := parseOptionalDuration(p.Period, 0)
	if err != nil {
		return policy.Config{}, fmt.Errorf("daemon: policy period: %w", err)
	}
	active, err := parseOptionalDuration(p.ActiveWithin, 0)
	if err != nil {
		return policy.Config{}, fmt.Errorf("daemon: policy active_within: %w", err)
	}
	idle, err := parseOptionalDuration(p.IdleAfter, 0)
	if err != nil {
		return policy.Config{}, fmt.Errorf("daemon: policy idle_after: %w", err)
	}
	return policy.Config{
		Kind:           p.Kind,
		Period:         period,
		MigrationBatch: p.MigrationBatch,
		HotThreshold:   p.HotThreshold,
		ActiveWithin:   active,
		IdleAfter:      idle,
	}, nil
}

// mergeSpec fills v's zero fields from the daemon-level defaults, which
// themselves fall back to built-in values. `vm add` builds its spec this
// way so a five-token command yields a fully sized VM.
func (c Config) mergeSpec(v VMSpec) VMSpec {
	d := c.Defaults
	if v.Workload == "" {
		v.Workload = pick(d.Workload, "gups")
	}
	if v.FootprintPages == 0 {
		v.FootprintPages = pickU(d.FootprintPages, 256)
	}
	if v.Ops == 0 {
		v.Ops = d.Ops // 0 stays open-ended
	}
	if v.Seed == 0 {
		v.Seed = pickU(d.Seed, c.Seed+1)
	}
	if v.VCPUs == 0 {
		v.VCPUs = pickI(d.VCPUs, 4)
	}
	if v.FMEMFrames == 0 {
		v.FMEMFrames = pickU(d.FMEMFrames, 96)
	}
	if v.SMEMFrames == 0 {
		v.SMEMFrames = pickU(d.SMEMFrames, 512)
	}
	if v.Policy.Kind == "" {
		v.Policy = d.Policy
		if v.Policy.Kind == "" {
			v.Policy = PolicySpec{Kind: "heat", Period: "2ms"}
		}
	}
	// An integrated policy bundles its own tracking: a default tracker
	// beside it would only charge track time and, under the A-bit
	// designs, clear the bits the design reads.
	if v.Tracker.Kind == "" && policy.TrackerDriven(v.Policy.Kind) {
		v.Tracker = d.Tracker
		if v.Tracker.Kind == "" {
			v.Tracker = TrackerSpec{Kind: "abit", Period: "1ms"}
		}
	}
	return v
}

func pick(v, def string) string {
	if v != "" {
		return v
	}
	return def
}

func pickU(v, def uint64) uint64 {
	if v != 0 {
		return v
	}
	return def
}

func pickI(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}
