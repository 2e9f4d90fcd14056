// Package bench regenerates every table and figure of the INFless
// paper's evaluation (plus the Section 2 motivation study) on this
// repository's simulated testbed. Each Fig*/Table* function runs the
// corresponding experiment and returns a Table whose rows mirror the
// series the paper plots; cmd/infless-bench prints them and
// bench_test.go exposes them as Go benchmarks.
//
// Absolute numbers will differ from the paper (the substrate is a
// calibrated simulator, not the authors' GPU testbed); EXPERIMENTS.md
// records the shape targets — who wins, by what factor, where crossovers
// fall — and the measured outcomes.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Options tune experiment scale.
type Options struct {
	// Quick shrinks run durations for use in tests and Go benchmarks.
	Quick bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Parallel is the worker count for sweep-style experiments that fan
	// their points across goroutines (<= 1 means serial). Results are
	// identical at any setting; see runner.go's determinism contract.
	Parallel int
	// Shards is the cluster shard count for the scale experiments
	// (fig17a/b, fig18a/b; 0 = 1). Sharding never changes placement
	// decisions, so tables stay byte-identical at any setting.
	Shards int
	// Storage is an artifact-storage profile name ("off", "tiered",
	// "preload"; see artifact.Profile) applied to scenario-running
	// experiments. Empty or "off" keeps the legacy scalar cold-start
	// model and byte-identical tables.
	Storage string
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// dur picks a run duration by mode.
func (o Options) dur(quick, full time.Duration) time.Duration {
	if o.Quick {
		return quick
	}
	return full
}

// Table is a rendered experiment result: one row per paper series/bar.
type Table struct {
	ID    string // e.g. "fig11"
	Title string
	Cols  []string
	Rows  []Row
	Notes []string
}

// Row is one line of a Table.
type Row struct {
	Name  string
	Cells []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(name string, cells ...string) {
	t.Rows = append(t.Rows, Row{Name: name, Cells: cells})
}

// Note appends a free-form footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Cols)+1)
	widths[0] = len("series")
	for i, c := range t.Cols {
		widths[i+1] = len(c)
	}
	for _, r := range t.Rows {
		if len(r.Name) > widths[0] {
			widths[0] = len(r.Name)
		}
		for i, c := range r.Cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	pad := func(s string, w int) string {
		if len(s) >= w {
			return s
		}
		return s + strings.Repeat(" ", w-len(s))
	}
	b.WriteString(pad("series", widths[0]))
	for i, c := range t.Cols {
		b.WriteString("  " + pad(c, widths[i+1]))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		b.WriteString(pad(r.Name, widths[0]))
		for i, c := range r.Cells {
			w := 0
			if i+1 < len(widths) {
				w = widths[i+1]
			}
			b.WriteString("  " + pad(c, w))
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as machine-readable CSV (one header row, one row
// per series) for downstream plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("series")
	for _, c := range t.Cols {
		b.WriteString("," + csvEscape(c))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Name))
		for i := range t.Cols {
			b.WriteString(",")
			if i < len(r.Cells) {
				b.WriteString(csvEscape(r.Cells[i]))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}

// ms formats a duration as milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Experiment couples an ID with its runner, for cmd/infless-bench.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Options) *Table
	// WallClock marks experiments whose table cells are host time
	// measurements (fig17a's scheduling overhead). RunStream runs them
	// with no other experiment in flight so -parallel does not distort
	// the measurement, and the byte-identical determinism contract
	// covers their structure but not their measured cell values — wall
	// clock is a property of the host, not of the seed.
	WallClock bool
}

// All returns every reproducible experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Desc: "Model zoo (Table 1)", Run: Table1},
		{ID: "fig2a", Desc: "Lambda latency heatmap, no batching", Run: Fig2a},
		{ID: "fig2b", Desc: "Lambda latency heatmap, OTP batching", Run: Fig2b},
		{ID: "fig2c", Desc: "Lambda memory over-provisioning", Run: Fig2c},
		{ID: "fig2d", Desc: "Production latency SLO distribution", Run: Fig2d},
		{ID: "fig3a", Desc: "Instances: one-to-one vs OTP batching", Run: Fig3a},
		{ID: "fig3b", Desc: "Throughput: one-to-one vs OTP vs INFless", Run: Fig3b},
		{ID: "fig7", Desc: "Operator frequency and time share", Run: Fig7},
		{ID: "fig8", Desc: "COP prediction error", Run: Fig8},
		{ID: "fig11", Desc: "Max throughput + component ablation", Run: Fig11},
		{ID: "fig12a", Desc: "Normalized throughput across traces", Run: Fig12a},
		{ID: "fig12b", Desc: "Normalized throughput across SLOs", Run: Fig12b},
		{ID: "fig13", Desc: "Batchsize and resource configuration mix", Run: Fig13},
		{ID: "fig14", Desc: "Resource provisioning over time", Run: Fig14},
		{ID: "fig15", Desc: "SLO violations and latency breakdown", Run: Fig15},
		{ID: "fig16", Desc: "Cold-start rate: LSTH vs HHP vs fixed", Run: Fig16},
		{ID: "fig16t", Desc: "Cold-start 2.0: LSTH vs tiering vs tiering+pre-loading", Run: Fig16T},
		{ID: "fig17a", Desc: "Scheduling overhead at scale", Run: Fig17a, WallClock: true},
		{ID: "fig17b", Desc: "Resource fragmentation at scale", Run: Fig17b},
		{ID: "fig18a", Desc: "Large-scale throughput vs #functions", Run: Fig18a},
		{ID: "fig18b", Desc: "Large-scale throughput vs SLO", Run: Fig18b},
		{ID: "table4", Desc: "Computation cost comparison (Table 4)", Run: Table4},
		{ID: "alpha", Desc: "Ablation: dispatcher alpha sweep", Run: AlphaSweep},
		{ID: "queueing", Desc: "Validation: analytic batch-queueing model vs simulator", Run: QueueingValidation},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
