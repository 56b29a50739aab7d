package daemon

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"demeter/internal/policy"
	"demeter/internal/sim"
	"demeter/internal/track"
)

// sampleConfig mirrors configs/serve.sample.json: two VMs with distinct
// tracker × policy pairings on a shared host.
const sampleConfig = `{
  "seed": 42,
  "tier": "pmem",
  "host_fmem_frames": 768,
  "host_smem_frames": 8192,
  "quantum": "5ms",
  "defaults": {
    "vcpus": 4, "fmem_frames": 96, "smem_frames": 512,
    "footprint_pages": 256,
    "tracker": {"kind": "abit", "period": "1ms"},
    "policy": {"kind": "heat", "period": "2ms", "migration_batch": 64}
  },
  "vms": [
    {
      "name": "vm0", "workload": "gups", "footprint_pages": 2000, "seed": 3,
      "fmem_frames": 256, "smem_frames": 2560,
      "tracker": {"kind": "abit", "period": "1ms"},
      "policy": {"kind": "heat", "period": "2ms"}
    },
    {
      "name": "vm1", "workload": "ycsb-a", "footprint_pages": 400, "seed": 5,
      "fmem_frames": 96, "smem_frames": 512,
      "tracker": {"kind": "pebs", "period": "1ms", "sample_period": 97},
      "policy": {"kind": "ranked", "period": "2ms"}
    }
  ]
}`

// sampleScript exercises every serve command, including live cluster
// reshaping mid-stream.
const sampleScript = `help
vms
run 5ms
stats
policy -dump accessed 0,1ms,5ms,0
tracker switch vm0 pebs
run 5ms
policy -dump accessed 0,1ms,5ms,0
vm add vm2 gups 200 abit threshold
run
stats
vm remove vm1
vms
run 5ms
stats
quit
`

func mustDaemon(t *testing.T, cfg string) *Daemon {
	t.Helper()
	c, err := ParseConfig(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runScript(t *testing.T, cfg, script string) string {
	t.Helper()
	d := mustDaemon(t, cfg)
	var out strings.Builder
	if err := d.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestServeTranscriptDeterministic is the serve-mode golden contract: a
// config plus a command script replays to a byte-identical transcript,
// including across concurrent daemon instances (the property CI checks
// at -parallel 1, 4 and 8).
func TestServeTranscriptDeterministic(t *testing.T) {
	ref := runScript(t, sampleConfig, sampleScript)
	if !strings.Contains(ref, "bye.") {
		t.Fatal("transcript did not end the session")
	}
	if strings.Contains(ref, "error:") {
		t.Fatalf("script hit an error:\n%s", ref)
	}

	const instances = 8
	got := make([]string, instances)
	var wg sync.WaitGroup
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := New(mustParse(sampleConfig))
			if err != nil {
				got[i] = "new: " + err.Error()
				return
			}
			var out strings.Builder
			if err := d.Serve(strings.NewReader(sampleScript), &out); err != nil {
				got[i] = "serve: " + err.Error()
				return
			}
			got[i] = out.String()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != ref {
			t.Fatalf("instance %d transcript diverged:\n--- want ---\n%s\n--- got ---\n%s", i, ref, g)
		}
	}
}

func mustParse(cfg string) Config {
	c, err := ParseConfig(strings.NewReader(cfg))
	if err != nil {
		panic(err) // test-only helper; config is a known-good constant
	}
	return c
}

// TestServeSubtestsParallel gives `go test -parallel N` real parallel
// work over the same transcript, so the CI matrix at widths 1/4/8
// exercises scheduler interleavings.
func TestServeSubtestsParallel(t *testing.T) {
	ref := runScript(t, sampleConfig, sampleScript)
	for i := 0; i < 8; i++ {
		t.Run(fmt.Sprintf("replica%d", i), func(t *testing.T) {
			t.Parallel()
			if g := runScript(t, sampleConfig, sampleScript); g != ref {
				t.Fatal("transcript diverged under parallel replay")
			}
		})
	}
}

// TestSnapshotConcurrentWithServe drives a serve session while other
// goroutines hammer Snapshot — the race detector run in CI proves the
// locking. Snapshots must always be internally consistent (sorted).
func TestSnapshotConcurrentWithServe(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := d.Snapshot()
				for j := 1; j < len(snap.Metrics); j++ {
					a, b := snap.Metrics[j-1], snap.Metrics[j]
					if a.Name > b.Name {
						t.Error("snapshot not sorted")
						return
					}
				}
			}
		}()
	}
	var out strings.Builder
	if err := d.Serve(strings.NewReader(sampleScript), &out); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()
	if s := out.String(); strings.Contains(s, "error:") {
		t.Fatalf("script hit an error:\n%s", s)
	}
}

// TestServePairingsActuallyTier pins that the sample pairings do real
// tiering work under serve: after simulated runtime both VMs have spent
// migration CPU moving pages.
func TestServePairingsActuallyTier(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	var out strings.Builder
	if err := d.Serve(strings.NewReader("run 50ms\nquit\n"), &out); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, name := range d.order {
		if mig := d.vms[name].vm.Ledger.Total("migrate"); mig <= 0 {
			t.Errorf("%s: no migration CPU charged after 50ms", name)
		}
	}
}

// TestIntegratedVMsRunWithoutTracker pins that an integrated policy
// runs alone. `vm add` accepts each integrated kind by the name stats
// prints, and a VM declared or added without a tracker gets none: no
// default tracker runs beside the design and charges track time.
func TestIntegratedVMsRunWithoutTracker(t *testing.T) {
	cfg := `{"host_fmem_frames":512,"host_smem_frames":4096,"vms":[
  {"name":"vm0","workload":"gups","footprint_pages":200,"fmem_frames":64,"smem_frames":512,"policy":{"kind":"static"}}]}`
	d := mustDaemon(t, cfg)
	var out strings.Builder
	script := "vm add vm1 gups 200 - tpp-h\nvm add vm2 gups 200 - static\nrun 5ms\nstats\nquit\n"
	if err := d.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "error:") {
		t.Fatalf("script hit an error:\n%s", out.String())
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 11 && strings.HasPrefix(f[0], "vm") {
			rows[f[0]] = f
		}
	}
	for _, want := range [][2]string{{"vm0", "static"}, {"vm1", "tpp-h"}, {"vm2", "static"}} {
		f := rows[want[0]]
		if f == nil {
			t.Fatalf("stats has no %s row:\n%s", want[0], out.String())
		}
		if f[2] != "-" || f[3] != want[1] {
			t.Errorf("%s: tracker %q policy %q, want - and %s", want[0], f[2], f[3], want[1])
		}
		if want[1] == "static" && f[8] != "0" {
			t.Errorf("%s: track[ms] %s under a static policy with no tracker", want[0], f[8])
		}
	}
}

// TestConfigErrors pins the panic-free config contract: every malformed
// config is an error, never a panic.
// configErrorCases are configs ParseConfig must reject, by what is
// wrong with them.
var configErrorCases = map[string]string{
	"empty":            ``,
	"bad json":         `{`,
	"unknown key":      `{"host_fmem_frames":1,"host_smem_frames":1,"vms":[{"name":"a","workload":"gups","footprint_pages":1,"fmem_frames":8,"smem_frames":8,"policy":{"kind":"static"}}],"typo_key":1}`,
	"no vms":           `{"host_fmem_frames":64,"host_smem_frames":64,"vms":[]}`,
	"zero host":        `{"host_fmem_frames":0,"host_smem_frames":64,"vms":[{"name":"a"}]}`,
	"bad tier":         `{"tier":"tape","host_fmem_frames":64,"host_smem_frames":64,"vms":[{"name":"a"}]}`,
	"dup vm":           `{"host_fmem_frames":64,"host_smem_frames":64,"vms":[{"name":"a"},{"name":"a"}]}`,
	"unnamed vm":       `{"host_fmem_frames":64,"host_smem_frames":64,"vms":[{"name":""}]}`,
	"bad quantum":      `{"host_fmem_frames":64,"host_smem_frames":64,"quantum":"fast","vms":[{"name":"a"}]}`,
	"negative quantum": `{"host_fmem_frames":64,"host_smem_frames":64,"quantum":"-5ms","vms":[{"name":"a"}]}`,
	"zero quantum":     `{"host_fmem_frames":64,"host_smem_frames":64,"quantum":"0","vms":[{"name":"a"}]}`,
}

func TestConfigErrors(t *testing.T) {
	for name, cfg := range configErrorCases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseConfig(strings.NewReader(cfg)); err == nil {
				t.Errorf("config accepted: %s", cfg)
			}
		})
	}
}

// FuzzParseConfig checks that no input panics ParseConfig and that
// parsing is a function of the bytes alone: the same input parses twice
// to an equal Config and the same error text. (There is no printer to
// round-trip through: sim.Duration has no MarshalText.) It never calls
// New, since a fuzzed VM size would allocate without bound. The seeds are
// the sample config and TestConfigErrors' cases.
func FuzzParseConfig(f *testing.F) {
	sample, err := os.ReadFile("../../configs/serve.sample.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(sample))
	f.Add(sampleConfig)
	names := make([]string, 0, len(configErrorCases))
	for name := range configErrorCases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(configErrorCases[name])
	}
	f.Fuzz(func(t *testing.T, in string) {
		c1, err1 := ParseConfig(strings.NewReader(in))
		c2, err2 := ParseConfig(strings.NewReader(in))
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("two parses of %q disagree: %v vs %v", in, err1, err2)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("two parses of %q disagree: %+v vs %+v", in, c1, c2)
		}
	})
}

// TestConfigSchema pins the serve schema, whose tracker and policy
// stanzas are track.Config and policy.Config: the sample config decodes
// to the kinds and tunings it declares, every stanza key is accepted,
// the tracker seed is no key (the daemon derives it from the VM seed),
// and a bad duration is rejected with its key named.
func TestConfigSchema(t *testing.T) {
	c, err := LoadConfig("../../configs/serve.sample.json")
	if err != nil {
		t.Fatal(err)
	}
	abit := track.Config{Kind: "abit", Period: sim.Millisecond}
	heat := policy.Config{Kind: "heat", Period: 2 * sim.Millisecond}
	want := []struct {
		where string
		tr    track.Config
		pol   policy.Config
	}{
		{"defaults", abit, policy.Config{Kind: "heat", Period: 2 * sim.Millisecond, MigrationBatch: 64}},
		{"vm0", abit, heat},
		{"vm1", track.Config{Kind: "pebs", Period: sim.Millisecond, SamplePeriod: 97},
			policy.Config{Kind: "ranked", Period: 2 * sim.Millisecond}},
	}
	got := []VMSpec{c.Defaults, c.VMs[0], c.VMs[1]}
	for i, w := range want {
		if got[i].Tracker != w.tr || got[i].Policy != w.pol {
			t.Errorf("%s: tracker %+v policy %+v, want %+v and %+v", w.where, got[i].Tracker, got[i].Policy, w.tr, w.pol)
		}
	}
	if c.Quantum != 5*sim.Millisecond {
		t.Errorf("quantum = %v, want 5ms", c.Quantum)
	}
	d, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if seed := d.vms["vm0"].spec.Tracker.Seed; seed != 4 {
		t.Errorf("vm0 tracker seed = %d, want the vm seed 3 + 1", seed)
	}

	base := `{"host_fmem_frames":512,"host_smem_frames":4096,%s"vms":[{"name":"a","tracker":%s,"policy":%s}]}`
	full := fmt.Sprintf(base, `"quantum":"",`,
		`{"kind":"abit","period":"","sample_period":0,"scan_batch":8}`,
		`{"kind":"age","period":"2ms","migration_batch":4,"hot_threshold":1.5,"active_within":"1ms","idle_after":"3ms"}`)
	c, err = ParseConfig(strings.NewReader(full))
	if err != nil {
		t.Fatalf("config with every stanza key rejected: %v", err)
	}
	if c.Quantum != defaultQuantum || c.VMs[0].Policy.IdleAfter != 3*sim.Millisecond {
		t.Errorf("quantum %v idle_after %v, want the 10ms default and 3ms", c.Quantum, c.VMs[0].Policy.IdleAfter)
	}
	for _, r := range []struct{ tracker, policy, key string }{
		{`{"kind":"damon","seed":9}`, `{"kind":"heat"}`, `"seed"`},
		{`{"kind":"abit","period":"soon"}`, `{"kind":"heat"}`, "tracker.period"},
		{`{"kind":"abit"}`, `{"kind":"age","idle_after":5}`, "policy.idle_after"},
	} {
		_, err := ParseConfig(strings.NewReader(fmt.Sprintf(base, "", r.tracker, r.policy)))
		if err == nil || !strings.Contains(err.Error(), r.key) {
			t.Errorf("tracker %s policy %s: error %v, want one naming %s", r.tracker, r.policy, err, r.key)
		}
	}
}

// TestDaemonBuildErrors pins New's validation: configs that parse but
// cannot build report errors naming the offending VM and the reason.
// Every row but its own fault is valid (GUPS needs >= 16 pages).
func TestDaemonBuildErrors(t *testing.T) {
	base := `{"host_fmem_frames":512,"host_smem_frames":4096,"vms":[%s]}`
	cases := map[string]struct{ vm, want string }{
		"unknown workload": {`{"name":"a","workload":"fortnite","footprint_pages":32,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit"},"policy":{"kind":"heat"}}`, "fortnite"},
		"unknown tracker":  {`{"name":"a","workload":"gups","footprint_pages":32,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"sonar"},"policy":{"kind":"heat"}}`, "sonar"},
		"unknown policy":   {`{"name":"a","workload":"gups","footprint_pages":32,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit"},"policy":{"kind":"vibes"}}`, "vibes"},
		"missing tracker":  {`{"name":"a","workload":"gups","footprint_pages":32,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"none_dont_default"},"policy":{"kind":"heat"}}`, "none_dont_default"},
		"bad period":       {`{"name":"a","workload":"gups","footprint_pages":32,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit","period":"soon"},"policy":{"kind":"heat"}}`, "period"},
		"oversized vm":     {`{"name":"a","workload":"gups","footprint_pages":32,"fmem_frames":1024,"smem_frames":8192,"tracker":{"kind":"abit"},"policy":{"kind":"heat"}}`, "more than the host's 4608"},
		"oversized wl":     {`{"name":"a","workload":"gups","footprint_pages":100,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit"},"policy":{"kind":"heat"}}`, "100 pages, more than its 72 guest frames"},
		"age window flip":  {`{"name":"a","workload":"gups","footprint_pages":32,"fmem_frames":8,"smem_frames":64,"tracker":{"kind":"abit"},"policy":{"kind":"age","active_within":"10ms","idle_after":"1ms"}}`, "active_within"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg, err := ParseConfig(strings.NewReader(fmt.Sprintf(base, tc.vm)))
			if err == nil {
				_, err = New(cfg)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestCommandErrors pins the panic-free command loop: malformed input
// produces error lines and the session keeps going.
func TestCommandErrors(t *testing.T) {
	script := strings.Join([]string{
		"frobnicate",
		"run fast",
		"run 1ms 2ms",
		"policy -dump accessed",
		"policy -dump accessed 5ms,1ms",
		"policy -dump accessed nope,0",
		"tracker switch vm0",
		"tracker switch ghost abit",
		"tracker switch vm0 sonar",
		"vm",
		"vm add onlyname",
		"vm add vm0 gups 100 abit heat",
		"vm add vmx gups 0 abit heat",
		"vm add vmx fortnite 100 abit heat",
		"vm add vmx gups 100 none heat",
		"vm remove ghost",
		"stats",
		"quit",
	}, "\n") + "\n"
	out := runScript(t, sampleConfig, script)
	wantErrors := 16
	if got := strings.Count(out, "error:"); got != wantErrors {
		t.Fatalf("want %d error lines, got %d:\n%s", wantErrors, got, out)
	}
	if !strings.Contains(out, "bye.") {
		t.Fatal("session did not survive to quit")
	}
}

// TestOversizedVMsAreRejected pins serve's admission rule: a VM whose
// workload outgrows its guest frames, or whose guest frames outgrow what
// the host has left, is refused with an error naming it, and the session
// runs on. A refused VM leaves nothing behind, so its name is free again.
func TestOversizedVMsAreRejected(t *testing.T) {
	var fill []string
	for i := 2; i < 18; i++ {
		fill = append(fill, fmt.Sprintf("vm add v%d gups 600 abit heat", i))
	}
	for _, tc := range []struct {
		name   string
		script []string
		errors int
		want   string
	}{
		// graph500 sweeps 5 x 300 pages; the default guest has 96+512.
		{"past guest frames", []string{"vm add g graph500 300 abit heat", "run 20ms", "vm add g gups 300 abit heat", "run 5ms"},
			1, `daemon: vm "g": workload touches 1500 pages, more than its 608 guest frames`},
		// 2816+608 booted plus nine 608-frame guests fill 8896 of 8960.
		{"past host frames", append(fill, "run 50ms"),
			7, `daemon: vm "v11": guest frames would total 9504, more than the host's 8960`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runScript(t, sampleConfig, strings.Join(append(tc.script, "quit"), "\n")+"\n")
			if got := strings.Count(out, "error:"); got != tc.errors {
				t.Errorf("want %d error lines, got %d:\n%s", tc.errors, got, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("transcript lacks %q:\n%s", tc.want, out)
			}
			if !strings.HasSuffix(out, "bye.\n") {
				t.Errorf("session did not end in bye.:\n%s", out)
			}
		})
	}
}

// TestIdleAgeHistogramAccounts checks the dump's accounting: per VM the
// bucket counts sum to the mapped page count (every mapped page lands in
// exactly one bucket, unseen pages in the oldest).
func TestIdleAgeHistogramAccounts(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	var out strings.Builder
	if err := d.Serve(strings.NewReader("run 10ms\npolicy -dump accessed 0,1ms,4ms,0\nquit\n"), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "error:") {
		t.Fatalf("dump failed:\n%s", out.String())
	}
	snap := d.Snapshot()
	for _, name := range []string{"vm0", "vm1"} {
		var sum float64
		for _, m := range snap.Matching("idle_age_pages") {
			if strings.HasPrefix(m.Labels, "vm="+name+",") {
				sum += m.Value
			}
		}
		d.mu.Lock()
		mapped := d.vms[name].vm.Proc.GPT.Mapped()
		d.mu.Unlock()
		if uint64(sum) != mapped {
			t.Errorf("%s: bucket sum %v != mapped %d", name, sum, mapped)
		}
	}
}

// TestVMRemoveFreesHostFrames checks teardown really releases capacity:
// remove a VM, add a same-sized one, and the host must accommodate it.
func TestVMRemoveFreesHostFrames(t *testing.T) {
	d := mustDaemon(t, sampleConfig)
	script := strings.Join([]string{
		"run 2ms",
		"vm remove vm1",
		"vm add vm3 silo 300 damon age",
		"run 2ms",
		"tracker switch vm3 idlepage",
		"run 2ms",
		"stats",
		"quit",
	}, "\n") + "\n"
	var out strings.Builder
	if err := d.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "error:") {
		t.Fatalf("reshape script failed:\n%s", s)
	}
	if !strings.Contains(s, "vm3") {
		t.Fatalf("stats does not show the added VM:\n%s", s)
	}
	if strings.Contains(s, "vm1") && strings.Contains(strings.Split(s, "vm remove vm1")[1], "vm1  ") {
		t.Fatalf("removed VM still renders in stats:\n%s", s)
	}
}
