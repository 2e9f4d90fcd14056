// Command infless-lint runs the repo's static-analysis suite: the
// determinism, single-sourcing and placement-index invariants described
// in internal/analysis, plus the whole-program hotalloc and errflow
// analyzers. It loads the whole module with go/parser + go/types
// (standard library only), fans the analyzers out in parallel with deterministic
// input-ordered output, and exits non-zero on any unsuppressed
// diagnostic.
//
// Usage:
//
//	go run ./cmd/infless-lint ./...
//	go run ./cmd/infless-lint ./internal/sim ./internal/bench/...
//	go run ./cmd/infless-lint -format=json ./...
//	go run ./cmd/infless-lint -list
//
// -format=json emits a stable array of {file, line, col, analyzer,
// message, suppressed} objects — suppressed findings are included for
// audit but never affect the exit code. CI turns the unsuppressed ones
// into GitHub ::error annotations. -list prints the registered analyzer
// names (one per line) and exits; CI greps it so an analyzer cannot
// silently drop out of the roster.
//
// Suppress a finding with a justified directive on the same line or the
// line above:
//
//	//lint:ignore wallclock wall-clock experiment measures host time
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tanklab/infless/internal/analysis"
)

func main() {
	format := flag.String("format", "text", "output format: text or json")
	list := flag.Bool("list", false, "print registered analyzer names and exit")
	flag.Parse()
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Println(a.Name)
		}
		return
	}
	os.Exit(analysis.Run(os.Stdout, ".", *format, flag.Args()))
}
