// Command infless-bench regenerates the tables and figures of the
// INFless paper's evaluation on the simulated testbed.
//
// Usage:
//
//	infless-bench -list
//	infless-bench -run fig11
//	infless-bench -run all -full -parallel 8
//	infless-bench -run fig12 -json > fig12.json
//
// -parallel fans independent experiments (and sweep points within an
// experiment) across a worker pool; output is byte-identical to a serial
// run, in the same order — parallelism only changes the wall clock. The
// one exception is fig17a, whose cells are measured host wall clock (it
// runs exclusively, with no other experiment in flight, so the numbers
// stay meaningful at any -parallel). Timing chatter goes to stderr so
// stdout stays comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/bench"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		run        = flag.String("run", "all", "experiment ID to run, or 'all'")
		full       = flag.Bool("full", false, "full-length runs (default: quick)")
		seed       = flag.Int64("seed", 1, "random seed")
		format     = flag.String("format", "table", "output format: table | csv")
		jsonOut    = flag.Bool("json", false, "print result tables as JSON (overrides -format)")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiments and sweep points (1 = serial)")
		shards     = flag.Int("shards", 1, "control-plane shard count for cluster-building experiments (tables are identical at any count)")
		storage    = flag.String("storage", "off", "artifact storage profile for scenario experiments: off | tiered | preload")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := checkFlags(*format, *storage); err != nil {
		fmt.Fprintln(os.Stderr, "infless-bench:", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	opts := bench.Options{Quick: !*full, Seed: *seed, Parallel: *parallel, Shards: *shards, Storage: *storage}
	emit := func(r bench.RunResult) {
		table := r.Table
		switch {
		case *jsonOut:
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(table); err != nil {
				fatal(err)
			}
		case *format == "csv":
			fmt.Printf("# %s: %s\n%s\n", table.ID, table.Title, table.CSV())
		default:
			fmt.Println(table.String())
		}
		fmt.Fprintf(os.Stderr, "(%s took %v)\n", r.Experiment.ID, r.Took.Round(1e6))
	}
	exps := bench.All()
	if *run != "all" {
		e, ok := bench.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
			os.Exit(1)
		}
		exps = []bench.Experiment{e}
	}
	bench.RunStream(exps, opts, *parallel, emit)
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// checkFlags rejects a -format or -storage value no experiment can use,
// so a typo fails before the first experiment runs instead of printing
// text tables or panicking mid-run.
func checkFlags(format, storage string) error {
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown -format %q (want table | csv; -json for JSON)", format)
	}
	_, err := artifact.Profile(storage)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "infless-bench:", err)
	os.Exit(1)
}
