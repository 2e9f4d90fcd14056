package main

// selfcheck.go is the benchmark's own noise test: it runs a workload
// five times as fresh processes, each with another seed, and reports for
// every end-to-end metric the spread of the five reported values the way
// the benchmark's driver takes it: the distance between the first and
// the third quartile as a share of the median. A metric that spreads
// over more than half its bound cannot gate a change on this host;
// selfcheck then exits non-zero. Like the driver, it reports the spread
// of setup_s without judging it: the driver holds setup_s only to the
// drift of its median between two sets of runs. The committed
// calibration.json is this command's output.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

const selfcheckRuns = 5

// checkedMetric is one end-to-end metric's row of the selfcheck.
type checkedMetric struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (Q3 - Q1) / median
	Range  float64   `json:"range"`  // (max - min) / median
	Bound  float64   `json:"bound"`
	OK     bool      `json:"ok"` // spread <= bound / 2; always true for setup_s
}

type checkedWorkload struct {
	Workload string                   `json:"workload"`
	Runs     int                      `json:"runs"`
	Seconds  float64                  `json:"seconds"`
	Seeds    []int64                  `json:"seeds"`
	Metrics  map[string]checkedMetric `json:"metrics"`
}

// runSelfcheck checks one workload, or with name "all" every workload of
// BENCHMARK.json, and prints one JSON document.
func runSelfcheck(ctx context.Context, sp *spec, name string, seed int64, seconds float64) error {
	var names []string
	for _, w := range sp.Workloads {
		if name == "all" || name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("selfcheck: unknown workload %q", name)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("selfcheck: locate own binary: %w", err)
	}
	var doc []checkedWorkload
	noisy := 0
	for _, wl := range names {
		cw := checkedWorkload{Workload: wl, Runs: selfcheckRuns, Seconds: seconds, Metrics: map[string]checkedMetric{}}
		values := map[string][]float64{}
		for i := 0; i < selfcheckRuns; i++ {
			s := seed + int64(i)
			cw.Seeds = append(cw.Seeds, s)
			res, err := runChild(ctx, self, wl, s, seconds)
			if err != nil {
				return fmt.Errorf("selfcheck: %s seed %d: %w", wl, s, err)
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s run %d of %d done\n", wl, i+1, selfcheckRuns)
		}
		for _, ms := range sp.EndToEnd {
			vals := values[ms.Name]
			med := median(vals)
			cm := checkedMetric{Unit: ms.Unit, Values: vals, Median: med, Bound: ms.Bound}
			if med != 0 {
				q1, q3 := quartiles(vals)
				cm.Spread = (q3 - q1) / med
				cm.Range = (slices.Max(vals) - slices.Min(vals)) / med
			}
			cm.OK = cm.Spread <= ms.Bound/2 || ms.Name == "setup_s"
			if !cm.OK {
				noisy++
			}
			cw.Metrics[ms.Name] = cm
		}
		doc = append(doc, cw)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("selfcheck: encode: %w", err)
	}
	fmt.Println(string(out))
	if noisy > 0 {
		return fmt.Errorf("selfcheck: %d metrics spread over more than half their bound", noisy)
	}
	return nil
}

// runChild runs one untraced benchmark run as a child process and
// parses the result object on the last line of its output. Run waits
// for the child to end, so none outlives the selfcheck.
func runChild(ctx context.Context, self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.CommandContext(ctx, self,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs")
	}
	return &res, nil
}
