// demeter-lint is the repo's static-analysis gate: a multichecker over
// the analyzers in internal/analysis that turns the simulator's runtime
// contracts — determinism, byte-identical reports, a 0 allocs/op access
// fast path, handled constructor errors, lock discipline, no mutable
// package state shared by parallel runs, canonical float folds — into
// compile-time checks.
//
// Usage:
//
//	go run ./cmd/demeter-lint ./...             # whole repo (CI gate)
//	go run ./cmd/demeter-lint ./internal/tlb    # one package
//	go run ./cmd/demeter-lint -only simdet ./...
//	go run ./cmd/demeter-lint -json ./... > lint-report.json
//	go run ./cmd/demeter-lint -list
//
// Exit status is 1 when any diagnostic (finding or stale suppression)
// is reported, 2 on usage or load errors. Suppress individual findings
// with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it; the reason is
// mandatory. A directive that suppresses nothing is itself reported as
// stale; stale detection is only meaningful for full-module runs, since
// a partial load can miss the finding a directive suppresses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"demeter/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer subset to run (default: all)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON report on stdout (human summary goes to stderr)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: demeter-lint [-list] [-only a,b] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	// check exits 2 on a usage, load or analyzer error.
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "demeter-lint:", err)
			os.Exit(2)
		}
	}
	analyzers, err := analysis.ByName(*only)
	check(err)
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	check(err)
	pkgs, err := loader.Load(patterns...)
	check(err)
	res, err := analysis.Run(pkgs, analyzers)
	check(err)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(analysis.NewJSONReport(loader.ModuleDir, analyzers, res)))
	} else {
		for _, d := range res.Diags {
			fmt.Println(d)
		}
		for _, d := range res.Stale {
			fmt.Println(d)
		}
	}
	if len(res.Diags)+len(res.Stale) > 0 {
		fmt.Fprintf(os.Stderr, "demeter-lint: %d finding(s) (%d stale allow(s)) in %d package(s)\n",
			len(res.Diags), len(res.Stale), len(pkgs))
		os.Exit(1)
	}
}
