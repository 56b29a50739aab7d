package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"demeter/internal/experiments"
)

// TestMain runs the command itself, not the tests, when runCLI
// re-executes the test binary, so the tests can check exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("DEMETER_SIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs demeter-sim with args in dir and returns its stdout and
// exit status.
func runCLI(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "DEMETER_SIM_RUN_MAIN=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return out.String(), 0
	case errors.As(err, &exit):
		return out.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestObsFlagsRejectedWithoutClusterRuns: list, hunt and serve have no
// reports or rungs to dump, so -metrics and -events exit 2 and write
// nothing.
func TestObsFlagsRejectedWithoutClusterRuns(t *testing.T) {
	dir := t.TempDir()
	for _, cmd := range []string{"list", "hunt", "serve"} {
		for _, flagName := range []string{"-metrics", "-events"} {
			if _, code := runCLI(t, dir, flagName, "out", cmd); code != 2 {
				t.Errorf("%s %s out: exit %d, want 2", flagName, cmd, code)
			}
			if _, err := os.Stat(filepath.Join(dir, "out")); err == nil {
				t.Fatalf("%s %s wrote its file", flagName, cmd)
			}
		}
	}
}

// TestObsOutputsReadReportsAndRungs: -metrics holds the merge of the
// reports' Metrics (run, top, a single experiment) or of the chaos
// rungs' snapshots, and -events their journals.
func TestObsOutputsReadReportsAndRungs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command")
	}
	e, _ := experiments.Get("table2")
	var want bytes.Buffer
	if err := experiments.RunExperiments(experiments.Tiny(), []experiments.Experiment{e})[0].Metrics.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, args := range [][]string{{"table2"}, {"run", "-only", "table2"}, {"top", "-only", "table2"}} {
		args = append([]string{"-scale", "tiny", "-metrics", "m.json", "-events", "e.jsonl"}, args...)
		if _, code := runCLI(t, dir, args...); code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
		got, err := os.ReadFile(filepath.Join(dir, "m.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%v: -metrics differs from the report's Metrics", args)
		}
		if ev, err := os.ReadFile(filepath.Join(dir, "e.jsonl")); err != nil || !bytes.Contains(ev, []byte(`"mlc-`)) {
			t.Errorf("%v: -events holds no table2 journal (err %v)", args, err)
		}
	}

	out, code := runCLI(t, dir, "-scale", "tiny", "-ladder", "0,1", "-metrics", "c.json", "-events", "c.jsonl", "chaos")
	if code != 0 {
		t.Fatalf("chaos: exit %d\n%s", code, out)
	}
	if m, err := os.ReadFile(filepath.Join(dir, "c.json")); err != nil || !bytes.Contains(m, []byte("vm_accesses")) {
		t.Errorf("chaos -metrics holds no rung metrics (err %v)", err)
	}
	ev, err := os.ReadFile(filepath.Join(dir, "c.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"chaos-x0", "chaos-x1"} {
		if !bytes.Contains(ev, []byte(label)) {
			t.Errorf("chaos -events lacks rung %s", label)
		}
	}
}

// TestEventsIndependentOfParallelism: the reports list their journals
// in a canonical order, so the -events file, trace pids included, is
// byte-identical at -parallel 1 and 4.
func TestEventsIndependentOfParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command")
	}
	dir := t.TempDir()
	var files [2][]byte
	for i, width := range []string{"1", "4"} {
		name := "e" + width + ".jsonl"
		out, code := runCLI(t, dir, "-scale", "tiny", "-parallel", width, "-events", name, "run", "-only", "table1,figure2")
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d\n%s", width, code, out)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Contains(files[0], []byte(`"ph":"i"`)) {
		t.Fatal("-events holds no journal events")
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the -events files at -parallel 1 and 4 differ")
	}
}

func ids(es []experiments.Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func TestSelectExperimentsDefaultIsRegistryOrder(t *testing.T) {
	es, err := selectExperiments("", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(es), ids(experiments.All()); !slices.Equal(got, want) {
		t.Fatalf("no filter selected %v, want the registry %v", got, want)
	}
}

func TestSelectExperimentsSkipKeepsRegistryOrder(t *testing.T) {
	es, err := selectExperiments("", "table1,figure2")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range experiments.All() {
		if e.ID != "table1" && e.ID != "figure2" {
			want = append(want, e.ID)
		}
	}
	if got := ids(es); !slices.Equal(got, want) {
		t.Fatalf("-skip table1,figure2 selected %v, want %v", got, want)
	}
}

func TestSelectExperimentsOnlyKeepsGivenOrder(t *testing.T) {
	es, err := selectExperiments("figure2,table1", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(es), []string{"figure2", "table1"}; !slices.Equal(got, want) {
		t.Fatalf("-only figure2,table1 selected %v, want %v", got, want)
	}
}

func TestSelectExperimentsIgnoresWhitespaceAndCase(t *testing.T) {
	es, err := selectExperiments(" Table1 , FIGURE2,, table2 ", " table2")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(es), []string{"table1", "figure2"}; !slices.Equal(got, want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
}

func TestSelectExperimentsErrors(t *testing.T) {
	for _, tc := range []struct {
		name, only, skip string
		want             []string // substrings the error must contain
	}{
		{"unknown only", "table1,nosuch", "", []string{"-only", `"nosuch"`}},
		{"unknown skip", "", "figure2,bogus", []string{"-skip", `"bogus"`}},
		{"duplicate only", "table1,figure2,TABLE1", "", []string{"-only", `"table1"`, "twice"}},
		{"duplicate skip", "", "figure2, figure2", []string{"-skip", `"figure2"`, "twice"}},
		{"empty selection", "table1", "table1", []string{"no experiments selected"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			es, err := selectExperiments(tc.only, tc.skip)
			if err == nil {
				t.Fatalf("selected %v, want an error", ids(es))
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not contain %q", err, w)
				}
			}
		})
	}
}

func TestSplitIDs(t *testing.T) {
	if got, want := splitIDs(" A, b ,,C "), []string{"a", "b", "c"}; !slices.Equal(got, want) {
		t.Fatalf("splitIDs = %v, want %v", got, want)
	}
	if got := splitIDs(" , "); len(got) != 0 {
		t.Fatalf("splitIDs of separators only = %v, want empty", got)
	}
}

func TestParseLadder(t *testing.T) {
	got, err := parseLadder(" 0, 1.5 ,,8")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1.5, 8}; !slices.Equal(got, want) {
		t.Fatalf("parseLadder = %v, want %v", got, want)
	}
	for _, bad := range []struct{ spec, want string }{
		{"", "empty ladder"},
		{" , ", "empty ladder"},
		{"0,x2", `"x2"`},
	} {
		if _, err := parseLadder(bad.spec); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("parseLadder(%q) error = %v, want one containing %q", bad.spec, err, bad.want)
		}
	}
}
