//go:build !race

// The full tiny-scale suite takes tens of seconds plain and minutes under
// the race detector, so this file is excluded from -race builds; CI runs
// it in a step of its own.

package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// reportManifest is the per-report golden manifest: one
// "<sha256>  <experiment id>" line per registered experiment, the SHA-256
// of its RunExperiments(Tiny(), ...) output (metrics section included).
// A deliberate behaviour change re-freezes it by hand.
const reportManifest = "testdata/reports.sha256"

func readManifest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(reportManifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", reportManifest, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestReportsRenderAtTinyScale renders every registered experiment at
// tiny scale and checks each report against the golden manifest, so a
// refactor that changes any report's bytes names the report.
func TestReportsRenderAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("report rendering is slow")
	}
	want := readManifest(t)
	reports := RunExperiments(Tiny(), All())
	for _, r := range reports {
		if !strings.Contains(r.Output, ":") || len(r.Output) < 80 {
			t.Errorf("%s: implausible report:\n%s", r.ID, r.Output)
		}
		sum := sha256.Sum256([]byte(r.Output))
		got := hex.EncodeToString(sum[:])
		switch w, ok := want[r.ID]; {
		case !ok:
			t.Errorf("%s: not in %s; its sha256 is %s", r.ID, reportManifest, got)
		case w != got:
			t.Errorf("%s: report changed: sha256 %s, %s has %s", r.ID, got, reportManifest, w)
		}
		delete(want, r.ID)
	}
	for id := range want {
		t.Errorf("%s: in %s but not a registered experiment", id, reportManifest)
	}
}
