package analysis

import (
	"go/ast"
	"strings"
)

// Mapiter flags map iteration whose body reaches an output sink — fmt,
// encoding/json, text/tabwriter, writer methods on bytes/strings/bufio
// buffers, or the obs journal — without an intervening sort. Report
// bytes produced from raw map order differ run to run, which breaks the
// canonical-order folding that keeps experiment reports byte-identical
// at any -parallel setting.
//
// The fix is structural, so the analyzer does not try to prove sortedness:
// collect the keys, sort them, and range over the slice — then the map
// range disappears and nothing is left to flag. Intentional unordered
// output (debug dumps) carries //lint:allow mapiter <reason>.
var Mapiter = &Analyzer{
	Name: "mapiter",
	Doc:  "flag map iteration feeding fmt/json/journal output without an intervening sort",
	Run:  runMapiter,
}

// sinkPackages are packages any call into which counts as emission.
var sinkPackages = map[string]bool{
	"fmt":            true,
	"encoding/json":  true,
	"text/tabwriter": true,
}

// writerMethods are emission methods when defined in writerPackages.
var writerMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

var writerPackages = map[string]bool{
	"bytes":   true,
	"strings": true,
	"bufio":   true,
	"io":      true,
	"os":      true,
}

func runMapiter(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(pass.TypesInfo.TypeOf(rng.X)) {
				return true
			}
			if sink := findSink(pass, rng.Body); sink != "" {
				pass.Reportf(rng.Pos(), "map iteration feeds %s without an intervening sort: emit in sorted key order so reports stay byte-identical", sink)
			}
			return true
		})
	}
	return nil
}

// findSink returns a description of the first output sink reached in the
// loop body, or "". Closure bodies are scanned too: emitting from a
// callback defined inside the loop is still per-iteration emission.
func findSink(pass *Pass, body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		switch {
		case sinkPackages[path]:
			sink = fn.Pkg().Name() + "." + fn.Name()
		case strings.HasSuffix(path, "internal/obs") && path != pass.PkgPath:
			// Calls into the obs layer (journal appends, snapshot helpers)
			// are emission; obs's own internals are the canonicalization
			// layer and sort before rendering.
			sink = "obs." + fn.Name()
		case writerMethods[fn.Name()] && writerPackages[path]:
			sink = fn.Pkg().Name() + "." + fn.Name()
		}
		return true
	})
	return sink
}
