// Command infless-lint runs the repo's static-analysis suite: the
// maporder and hotalloc analyzers described in
// internal/analysis. It loads the whole module with go/parser + go/types
// (standard library only), runs the analyzers one after the other, and
// exits non-zero on any unsuppressed diagnostic.
//
// Usage:
//
//	go run ./cmd/infless-lint ./...
//	go run ./cmd/infless-lint ./internal/sim ./internal/bench/...
//	go run ./cmd/infless-lint -format=json ./...
//
// -format=json emits a stable array of {file, line, col, analyzer,
// message, suppressed} objects — suppressed findings are included for
// audit but never affect the exit code. CI turns the unsuppressed ones
// into GitHub ::error annotations.
//
// Suppress a finding with a justified directive on the same line or the
// line above:
//
//	//lint:ignore hotalloc first touch only: the free list covers steady state
package main

import (
	"flag"
	"os"

	"github.com/tanklab/infless/internal/analysis"
)

func main() {
	format := flag.String("format", "text", "output format: text or json")
	flag.Parse()
	os.Exit(analysis.Run(os.Stdout, ".", *format, flag.Args()))
}
