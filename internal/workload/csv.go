package workload

// csv.go reads request-rate traces, so that real production traces
// (e.g. re-binned Azure Functions data, the paper's dynamic workload
// source) can drive the simulator in place of the synthetic generators.
// The format is a two-column CSV:
//
//	offset_seconds,rps
//	0,12.5
//	60,14.0
//	...
//
// Rows must be equally spaced and ascending; the spacing becomes the
// trace step.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// validRate reports whether x can be a trace rate: finite and
// non-negative (the comparison is false for NaN).
func validRate(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// ReadCSV parses a trace in the format above. Rates must be finite and
// non-negative, and the row spacing must convert to a positive
// time.Duration.
func ReadCSV(r io.Reader, name string) (*Trace, error) {
	sc := bufio.NewScanner(r)
	lineNo := 0
	var (
		offsets []float64
		rates   []float64
		lines   []int // source line of each row, for spacing errors
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lineNo == 1 && strings.HasPrefix(strings.ToLower(line), "offset") {
			continue // header
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: line %d: want offset,rps", lineNo)
		}
		off, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad offset: %v", lineNo, err)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: bad rps: %v", lineNo, err)
		}
		if !validRate(rate) {
			return nil, fmt.Errorf("workload: line %d: rate %g is not a finite non-negative number", lineNo, rate)
		}
		offsets = append(offsets, off)
		rates = append(rates, rate)
		lines = append(lines, lineNo)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	step := time.Minute
	if len(offsets) > 1 {
		d := offsets[1] - offsets[0]
		// Written as a range test so a NaN spacing fails it; the upper
		// bound keeps the whole trace, one step per row, inside a
		// Duration (Trace.Duration).
		ns := d * float64(time.Second)
		if !(ns >= 1 && ns*float64(len(offsets)) < 1<<63) {
			return nil, fmt.Errorf("workload: line %d: offsets must ascend by a step of at least 1ns, the %d rows spanning under ~292y, got %gs",
				lines[1], len(offsets), d)
		}
		for i := 2; i < len(offsets); i++ {
			if diff := offsets[i] - offsets[i-1]; diff != d {
				return nil, fmt.Errorf("workload: line %d: uneven spacing (%g vs %g)", lines[i], diff, d)
			}
		}
		step = time.Duration(ns)
	}
	if name == "" {
		name = "csv"
	}
	return &Trace{Name: name, Step: step, RPS: rates}, nil
}
