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

	"demeter/internal/mem"
	"demeter/internal/policy"
	"demeter/internal/sim"
	"demeter/internal/track"
	"demeter/internal/workload"
)

// VMSpec declares one guest: its workload stream, sizing and the
// tracker × policy pairing that manages its pages. The tracker and
// policy stanzas are the components' own configs, so their keys and
// defaults are defined once, in internal/track and internal/policy;
// durations in them are strings ("500us", "2ms", see sim.ParseDuration).
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

	// Tracker may be left out (empty kind) for an integrated policy,
	// which bundles its own tracking. Its Seed is never read from the
	// config: the daemon derives it from the VM seed.
	Tracker track.Config  `json:"tracker"`
	Policy  policy.Config `json:"policy"`
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
	// Quantum is the step `run` advances when no duration is given.
	// ParseConfig starts it at 10ms, so leaving the key out keeps that
	// default; an explicit zero is rejected.
	Quantum sim.Duration `json:"quantum,omitempty"`
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
	c := Config{Quantum: defaultQuantum}
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
	if c.Quantum <= 0 {
		return fmt.Errorf("daemon: config: quantum must be positive")
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

// mergeSpec fills v's zero fields from the daemon-level defaults, which
// themselves fall back to built-in values, and derives the tracker's
// seed from the VM seed so twin configs replay identically. `vm add`
// builds its spec this way so a five-token command yields a fully sized
// VM.
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
			v.Policy = policy.Config{Kind: "heat", Period: 2 * sim.Millisecond}
		}
	}
	// An integrated policy bundles its own tracking: a default tracker
	// beside it would only charge track time and, under the A-bit
	// designs, clear the bits the design reads.
	if v.Tracker.Kind == "" && policy.TrackerDriven(v.Policy.Kind) {
		v.Tracker = d.Tracker
		if v.Tracker.Kind == "" {
			v.Tracker = track.Config{Kind: "abit", Period: sim.Millisecond}
		}
	}
	v.Tracker.Seed = v.Seed + 1
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
