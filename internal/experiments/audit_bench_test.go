package experiments

import "testing"

// BenchmarkMachineAudit times the end-of-run audit (host frames, each
// guest's frames and balloon set, TLB/GPT/EPT agreement) on a tiny-scale
// cluster whose VMs settled double-balloon provisioning and then ran
// GUPS under Demeter to the end.
func BenchmarkMachineAudit(b *testing.B) {
	c := provisioned(Tiny(), provisionScheme{name: "demeter-balloon+demeter", design: "demeter", setup: demeterSetup, fullCapacityNodes: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}
