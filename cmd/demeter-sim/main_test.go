package main

import (
	"slices"
	"strings"
	"testing"

	"demeter/internal/experiments"
)

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
