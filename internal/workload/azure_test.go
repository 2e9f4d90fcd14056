package workload

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func azureRow(fn string, counts []int) string {
	cells := make([]string, 0, 4+len(counts))
	cells = append(cells, "owner1", "app1", fn, "http")
	for _, c := range counts {
		cells = append(cells, fmt.Sprintf("%d", c))
	}
	return strings.Join(cells, ",")
}

func TestReadAzureCSV(t *testing.T) {
	header := "HashOwner,HashApp,HashFunction,Trigger,1,2,3,4"
	src := strings.Join([]string{
		header,
		azureRow("fnA", []int{60, 120, 0, 60}),
		azureRow("fnB", []int{0, 0, 0, 600}),
	}, "\n")
	rows, err := ReadAzureCSV(strings.NewReader(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	a := rows[0]
	if a.Function != "fnA" || a.Trigger != "http" {
		t.Fatalf("metadata wrong: %+v", a)
	}
	if a.Trace.Step != time.Minute || len(a.Trace.RPS) != 4 {
		t.Fatalf("trace shape wrong: %+v", a.Trace)
	}
	// 60 invocations/minute = 1 RPS.
	if a.Trace.RPS[0] != 1 || a.Trace.RPS[1] != 2 || a.Trace.RPS[2] != 0 {
		t.Fatalf("rps conversion wrong: %v", a.Trace.RPS)
	}
}

func TestReadAzureCSVMaxRows(t *testing.T) {
	src := strings.Join([]string{
		azureRow("a", []int{1}),
		azureRow("b", []int{1}),
		azureRow("c", []int{1}),
	}, "\n")
	rows, err := ReadAzureCSV(strings.NewReader(src), 2)
	if err != nil || len(rows) != 2 {
		t.Fatalf("maxRows: %d rows, %v", len(rows), err)
	}
}

func TestReadAzureCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"few columns": "a,b,c\n",
		"bad count":   "o,a,f,http,xyz\n",
		"negative":    "o,a,f,http,-3\n",
		"NaN count":   "o,a,f,http,NaN\n",
		"+Inf count":  "o,a,f,http,0,+Inf\n",
	}
	for name, src := range cases {
		if _, err := ReadAzureCSV(strings.NewReader(src), 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestClassify(t *testing.T) {
	if got := Classify(Sporadic(Options{Seed: 1})); got != "sporadic" {
		t.Errorf("sporadic classified as %s", got)
	}
	if got := Classify(Periodic(Options{Seed: 1})); got != "periodic" {
		t.Errorf("periodic classified as %s", got)
	}
	if got := Classify(Bursty(Options{Seed: 1})); got != "bursty" {
		t.Errorf("bursty classified as %s", got)
	}
	if got := Classify(&Trace{Step: time.Minute, RPS: []float64{}}); got != "sporadic" {
		t.Errorf("empty trace classified as %s", got)
	}
}
