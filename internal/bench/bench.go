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
	"math"
	"slices"
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

// Table is an experiment result. Its series (rows) and columns are
// declared when it is made and a figure fills each series by name, so
// every rendering — String, CSV, -json — is in declaration order, and
// the order a figure computes its rows in (a map's included) cannot
// reach the output.
type Table struct {
	ID    string // e.g. "fig11"
	Title string
	Cols  []string
	Rows  []Row // one per declared series
	Notes []string

	vals [][]float64 // by row: each cell's value, NaN for text
}

// Row is one series as it prints. Cells stays nil until Put: a section
// heading (fig7).
type Row struct {
	Name  string
	Cells []string
}

// cell is one table entry as it prints, and the value it prints (NaN
// for fixed text such as "x" or "-").
type cell struct {
	s string
	v float64
}

// val renders v through format.
func val(v float64, format func(float64) string) cell { return cell{format(v), v} }

func text(s string) cell { return cell{s, math.NaN()} }

// newTable declares a table's series and columns.
func newTable(id, title string, series, cols []string) *Table {
	t := &Table{ID: id, Title: title, Cols: cols, vals: make([][]float64, len(series))}
	for _, name := range series {
		t.Rows = append(t.Rows, Row{Name: name})
	}
	return t
}

// Put fills, in column order, the first series named series that holds
// no cells yet: a name declared twice (fig7's operator classes under
// each model) fills in declaration order.
func (t *Table) Put(series string, cells ...cell) {
	for i := range t.Rows {
		if r := &t.Rows[i]; r.Name == series && r.Cells == nil && len(cells) <= len(t.Cols) {
			for _, c := range cells {
				r.Cells, t.vals[i] = append(r.Cells, c.s), append(t.vals[i], c.v)
			}
			return
		}
	}
	panic(fmt.Sprintf("bench: %s has no unfilled series %q of %d columns", t.ID, series, len(cells)))
}

// Value returns the value in column col of the first series named
// series: NaN for text or no cell. It panics on an undeclared name.
func (t *Table) Value(series, col string) float64 {
	i := slices.IndexFunc(t.Rows, func(r Row) bool { return r.Name == series })
	j := slices.Index(t.Cols, col)
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("bench: %s has no cell (%q, %q)", t.ID, series, col))
	}
	if j >= len(t.vals[i]) {
		return math.NaN()
	}
	return t.vals[i][j]
}

// labels formats each of xs into a series name.
func labels[T any](format string, xs []T) []string {
	names := make([]string, len(xs))
	for i, x := range xs {
		names[i] = fmt.Sprintf(format, x)
	}
	return names
}

// Note appends a free-form footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := []int{len("series")}
	for _, c := range t.Cols {
		widths = append(widths, len(c))
	}
	for _, r := range t.Rows {
		widths[0] = max(widths[0], len(r.Name))
		for i, c := range r.Cells {
			widths[i+1] = max(widths[i+1], len(c))
		}
	}
	pad := func(s string, w int) { b.WriteString(s + strings.Repeat(" ", max(w-len(s), 0))) }
	pad("series", widths[0])
	for i, c := range t.Cols {
		pad("  "+c, widths[i+1]+2)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		pad(r.Name, widths[0])
		for i, c := range r.Cells {
			pad("  "+c, widths[i+1]+2)
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

// Cell formats: fmt verbs, and pct for a ratio as a percentage.
var f0, f1, f2, pct = verb("%.0f"), verb("%.1f"), verb("%.2f"), percent("%.1f%%")

func verb(format string) func(float64) string {
	return func(v float64) string { return fmt.Sprintf(format, v) }
}

// percent formats a ratio, times 100, through a fmt verb.
func percent(format string) func(float64) string {
	return func(v float64) string { return fmt.Sprintf(format, 100*v) }
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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
