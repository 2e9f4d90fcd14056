package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{name: "roundtrip", id: 0, parent: -1, start: 0, end: 100},
		{name: "handler", id: 1, parent: 0, start: 20, end: 50},
		{name: "encode", id: 2, parent: 1, start: 40, end: 50},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"roundtrip": {count: 1, total: 100, self: 70},
		"handler":   {count: 1, total: 30, self: 20},
		"encode":    {count: 1, total: 10, self: 10},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	// Two children served at once cover [10,60] together: 50, not 80.
	spans := []span{
		{name: "segment", id: 0, parent: -1, start: 0, end: 100},
		{name: "op", id: 1, parent: 0, start: 10, end: 50},
		{name: "op", id: 2, parent: 0, start: 20, end: 60},
	}
	got := selfTimes(spans)
	if got["segment"].self != 50 {
		t.Errorf("segment self = %d, want 50", got["segment"].self)
	}
	if got["op"] != (layerTime{count: 2, total: 80, self: 80}) {
		t.Errorf("op roll-up = %+v", got["op"])
	}
}

func TestSelfTimeClipsToParent(t *testing.T) {
	// A child that starts before and ends after its parent can only take
	// the parent's own interval away.
	spans := []span{
		{name: "parent", id: 0, parent: -1, start: 10, end: 20},
		{name: "child", id: 1, parent: 0, start: 0, end: 15},
		{name: "child", id: 2, parent: 0, start: 18, end: 30},
	}
	if got := selfTimes(spans)["parent"].self; got != 3 {
		t.Errorf("parent self = %d, want 3", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d, want -1", id)
	}
}

func TestTraceFileIsJSONLines(t *testing.T) {
	tr := newTracer()
	root := tr.begin("segment", -1, 0)
	op := tr.begin("gateway.ServeHTTP", root, 7)
	tr.end(op)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(rows))
	}
	if rows[1]["name"] != "gateway.ServeHTTP" || rows[1]["parent"] != float64(root) || rows[1]["op"] != float64(7) {
		t.Errorf("child line = %v", rows[1])
	}
	if rows[1]["end_ns"].(float64) < rows[1]["start_ns"].(float64) {
		t.Errorf("span ends before it starts: %v", rows[1])
	}
}
