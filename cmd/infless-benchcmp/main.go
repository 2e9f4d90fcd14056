// Command infless-benchcmp claims — or declines to claim — a performance
// change the way the choosing-metrics guide (§8) asks: alternating paired
// runs of the repository's benchmark on a parent commit and on the
// working tree, each side's median and quartiles per end-to-end metric,
// pairs won, and the verdict "gain" only when the change wins at least
// nine tenths of the pairs and the medians differ by more than the
// distance between the parent's quartiles.
//
// Usage (from the repository root; `make bench-compare REF=… W=… PAIRS=…`):
//
//	go run ./cmd/infless-benchcmp -ref HEAD~1 -workload sched_scale
//	go run ./cmd/infless-benchcmp -ref-dir ../parent -workload sim_fleet -pairs 10 -seed 7
//
// -ref checks the commit out into a temporary `git worktree` and removes
// it afterwards; -ref-dir uses a checkout that already exists. Either
// way the comparison is refused unless BENCHMARK.json and every file
// under benchmark/ are byte-identical on both sides: a change that
// claims a gain may not edit the instrument. Each run is the declared
// command, `go run ./benchmark --workload W --seed S --seconds T
// --trace 0`, executed in its own tree; the last line it prints is the
// JSON result read here. Standard library only.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	ref := flag.String("ref", "", "git ref of the parent side; checked out into a temporary worktree")
	refDir := flag.String("ref-dir", "", "existing checkout of the parent side (instead of -ref)")
	workload := flag.String("workload", "sched_scale", "benchmark workload to compare")
	pairs := flag.Int("pairs", 10, "parent/change pairs to run (the rule needs at least ten)")
	seed := flag.Int64("seed", 1, "benchmark --seed, the same on both sides")
	seconds := flag.Float64("seconds", 20, "benchmark --seconds, the same on both sides")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, *ref, *refDir, *workload, *pairs, *seed, *seconds)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "infless-benchcmp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, ref, refDir, workload string, pairs int, seed int64, seconds float64) error {
	if (ref == "") == (refDir == "") {
		return errors.New("give exactly one of -ref and -ref-dir")
	}
	if pairs < 1 {
		return errors.New("-pairs must be at least 1")
	}
	specs, err := endToEnd("BENCHMARK.json")
	if err != nil {
		return err
	}
	if ref != "" {
		tmp, err := os.MkdirTemp("", "infless-benchcmp-")
		if err != nil {
			return fmt.Errorf("create worktree directory: %w", err)
		}
		defer os.RemoveAll(tmp)
		refDir = filepath.Join(tmp, "parent")
		if out, err := exec.CommandContext(ctx, "git", "worktree", "add", "--detach", refDir, ref).CombinedOutput(); err != nil {
			return fmt.Errorf("git worktree add %s: %w\n%s", ref, err, out)
		}
		defer func() {
			// Not CommandContext: the removal must run after an interrupt too.
			if out, err := exec.Command("git", "worktree", "remove", "--force", refDir).CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "infless-benchcmp: git worktree remove %s: %v\n%s", refDir, err, out)
			}
		}()
	}
	if diff, err := benchmarkDiff(refDir, "."); err != nil {
		return err
	} else if len(diff) > 0 {
		return fmt.Errorf("the benchmark differs between the two sides, so their numbers do not compare: %s",
			strings.Join(diff, ", "))
	}

	args := []string{"run", "./benchmark", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	sides := [2]struct {
		name, dir string
		failed    int64
		attempted int64
		values    map[string][]float64
	}{{name: "parent", dir: refDir}, {name: "change", dir: "."}}
	for i := range sides {
		sides[i].values = map[string][]float64{}
	}
	for p := 0; p < pairs; p++ {
		// Alternate which side runs first, so slow drift of the host
		// favours neither.
		for _, s := range [2]int{p % 2, 1 - p%2} {
			side := &sides[s]
			res, err := runBenchmark(ctx, side.dir, args)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, side.name, err)
			}
			side.attempted += res.Attempted
			side.failed += res.Failed
			for _, m := range specs {
				v, ok := res.Metrics[m.Name]
				if !ok {
					return fmt.Errorf("pair %d, %s: result has no %s", p+1, side.name, m.Name)
				}
				side.values[m.Name] = append(side.values[m.Name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %s: throughput_ops_s %.6g\n",
				p+1, pairs, side.name, res.Metrics["throughput_ops_s"].Value)
		}
	}

	fmt.Printf("%s  seed %d  --seconds %g  %d pairs, alternating; medians [q1, q3]\n", workload, seed, seconds, pairs)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tparent\tchange\tchange vs parent\twon\tverdict")
	for _, m := range specs {
		c := compare(m, sides[0].values[m.Name], sides[1].values[m.Name])
		verdict := c.verdict
		if c.overBound {
			verdict += fmt.Sprintf(", worse than the %g%% bound", 100*m.Bound)
		}
		fmt.Fprintf(tw, "%s (%s, %s)\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%d/%d\t%s\n",
			m.Name, m.Unit, m.Better, c.parentMed, c.parentQ1, c.parentQ3, c.changeMed, c.changeQ1, c.changeQ3,
			-100*c.worsening, c.wins, c.pairs, verdict)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Println("change vs parent: positive is better. gain/loss: >= 9/10 of the pairs one way and medians apart by more than the parent's q3-q1.")
	for _, s := range sides {
		fmt.Printf("%s: %d of %d operations failed\n", s.name, s.failed, s.attempted)
	}
	return nil
}

// endToEnd reads the end-to-end metric list of BENCHMARK.json.
func endToEnd(path string) ([]metricSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end metrics", path)
	}
	return spec.EndToEnd, nil
}

// benchmarkDiff lists the files of the benchmark — BENCHMARK.json and
// everything under benchmark/ except its out/ directory of traces —
// that are missing on one side or differ in content.
func benchmarkDiff(a, b string) ([]string, error) {
	files := map[string]bool{"BENCHMARK.json": true}
	for _, root := range []string{a, b} {
		err := filepath.WalkDir(filepath.Join(root, "benchmark"), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if d.IsDir() {
				if rel == filepath.Join("benchmark", "out") {
					return fs.SkipDir
				}
				return nil
			}
			files[rel] = true
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("list the benchmark's files: %w", err)
		}
	}
	var diff []string
	for rel := range files {
		x, errA := os.ReadFile(filepath.Join(a, rel))
		y, errB := os.ReadFile(filepath.Join(b, rel))
		if errA != nil || errB != nil || !bytes.Equal(x, y) {
			diff = append(diff, rel)
		}
	}
	slices.Sort(diff)
	return diff, nil
}

// result is the JSON line a benchmark run ends with. A run whose output
// checks failed exits non-zero, so every result read here is a correct
// one.
type result struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runBenchmark executes `go <args>` in dir and parses its last line.
func runBenchmark(ctx context.Context, dir string, args []string) (*result, error) {
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("the run's last line is not its JSON result: %w", err)
	}
	return &res, nil
}
