package experiments

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/pebs"
	"demeter/internal/stats"
)

// ablate runs a 3-VM GUPS cluster under a modified Demeter config and
// reports (avg runtime s, tracking CPU s, promoted pages).
func ablate(s Scale, mutate func(*core.Config)) (runtime float64) {
	cfg := s.demeterConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return runDemeterWith(s, 3, cfg)
}

// ablatePair runs the unmodified baseline and one variant as two
// independent leaf jobs.
func ablatePair(s Scale, mutate func(*core.Config)) (base, variant float64) {
	rs := runIndexed(2, func(i int) float64 {
		if i == 0 {
			return ablate(s, nil)
		}
		return ablate(s, mutate)
	})
	return rs[0], rs[1]
}

// AblationDraining compares Demeter's scheduler-integrated draining with
// a HeMem-style dedicated polling thread (§3.2.2).
func AblationDraining(s Scale) string {
	base, poll := ablatePair(s, func(cfg *core.Config) {
		cfg.DrainAtContextSwitch = false
		cfg.PollPeriod = s.PollPeriod
	})
	tb := stats.NewTable("Ablation: sample draining strategy", "Strategy", "Avg runtime (s)")
	tb.AddRow("context-switch draining (Demeter)", fmt.Sprintf("%.3f", base))
	tb.AddRow("dedicated polling thread", fmt.Sprintf("%.3f", poll))
	return tb.String() + "\nExpected: polling burns CPU continuously and never beats the\nintegrated drain.\n"
}

// AblationTranslation charges a software page walk per sample, the cost
// physical-space classifiers (HeMem/Memtis) pay and the gVA feed avoids.
func AblationTranslation(s Scale) string {
	base, translated := ablatePair(s, func(cfg *core.Config) { cfg.TranslateSamples = true })
	tb := stats.NewTable("Ablation: sample address handling", "Strategy", "Avg runtime (s)")
	tb.AddRow("direct gVA (Demeter)", fmt.Sprintf("%.3f", base))
	tb.AddRow("translate every sample", fmt.Sprintf("%.3f", translated))
	return tb.String() + "\nExpected: per-sample translation only adds overhead.\n"
}

// AblationRelocation compares §3.2.3's balanced swap with the
// demote-then-promote sequence through temporary pages.
func AblationRelocation(s Scale) string {
	base, seq := ablatePair(s, func(cfg *core.Config) { cfg.SequentialRelocation = true })
	tb := stats.NewTable("Ablation: relocation mechanism", "Mechanism", "Avg runtime (s)")
	tb.AddRow("balanced swap (Demeter)", fmt.Sprintf("%.3f", base))
	tb.AddRow("sequential demote-then-promote", fmt.Sprintf("%.3f", seq))
	return tb.String() + "\nExpected: sequential relocation pays reclaim pressure on the fast\nnode and runs slower.\n"
}

// AblationEvent compares the media-agnostic load-latency event with a
// cache-miss event that only sees slow-tier traffic.
func AblationEvent(s Scale) string {
	base, miss := ablatePair(s, func(cfg *core.Config) { cfg.Event = pebs.EventL3Miss })
	tb := stats.NewTable("Ablation: PEBS trigger event", "Event", "Avg runtime (s)")
	tb.AddRow(pebs.EventLoadLatency.String(), fmt.Sprintf("%.3f", base))
	tb.AddRow(pebs.EventL3Miss.String()+" (slow tier only)", fmt.Sprintf("%.3f", miss))
	return tb.String() + "\nExpected: losing FMEM visibility degrades demotion choices; the\nload-latency event also covers CXL media that miss events cannot.\n"
}
