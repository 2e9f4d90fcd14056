package main

// span.go is the benchmark-owned tracer. A span brackets one call the
// benchmark makes into a layer (deploy, ServeHTTP, a client round trip,
// Engine.Run, BuildPlan, Schedule, Release ...). Spans stay in memory
// during the run and are written to benchmark/out/trace_<workload>.jsonl
// when it ends; a layer's self time is its span's duration minus the
// part of that interval its child spans cover. No span is recorded from
// inside the program under test: that is a later change.

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
)

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; parent is the id of the span that caused this one (-1 for a
// root) and op the operation all spans of one request share.
type span struct {
	name       string
	id, parent int32
	op         int64
	start, end int64
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// passes pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: op, start: now, end: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerTime is the per-name roll-up of a trace.
type layerTime struct {
	count int64
	total int64 // ns inside spans of this name
	self  int64 // ns not covered by their children
}

// mean is the mean duration of the layer's spans in ns.
func (lt layerTime) mean() float64 {
	if lt.count == 0 {
		return 0
	}
	return float64(lt.total) / float64(lt.count)
}

// selfTimes rolls spans up by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span:
// overlapping children (two connections served at once) are not
// subtracted twice, and a child that outlives its parent only counts
// for the part inside it.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.name]
		lt.count++
		dur := s.end - s.start
		lt.total += dur
		lt.self += dur - covered(children[s.id], s.start, s.end)
		out[s.name] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum int64
	edge := lo
	for _, iv := range ivs {
		from, to := max(iv[0], edge), min(iv[1], hi)
		if to > from {
			sum += to - from
			edge = to
		}
	}
	return sum
}

// writeJSONL writes one JSON object per span to path, creating the
// directory. The encoder is by hand: span names are benchmark constants
// (no escaping needed) and a traced pass holds hundreds of thousands of
// spans.
func (t *tracer) writeJSONL(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: create directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: create file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace: close %s: %w", path, cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range t.spans {
		b = append(b[:0], `{"name":"`...)
		b = append(b, s.name...)
		b = append(b, `","id":`...)
		b = strconv.AppendInt(b, int64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"op":`...)
		b = strconv.AppendInt(b, s.op, 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("trace: write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: flush %s: %w", path, err)
	}
	return nil
}
