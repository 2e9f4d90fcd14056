package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := Bursty(Options{Days: 1, Seed: 13})
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "offset_seconds,rps")
	for i, r := range orig.RPS {
		fmt.Fprintf(&buf, "%d,%g\n", int((time.Duration(i) * orig.Step).Seconds()), r)
	}
	got, err := ReadCSV(&buf, "bursty")
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != orig.Step {
		t.Fatalf("step %v != %v", got.Step, orig.Step)
	}
	if len(got.RPS) != len(orig.RPS) {
		t.Fatalf("length %d != %d", len(got.RPS), len(orig.RPS))
	}
	for i := range got.RPS {
		if d := got.RPS[i] - orig.RPS[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("rate %d changed: %v vs %v", i, got.RPS[i], orig.RPS[i])
		}
	}
}

func TestReadCSVHandAuthored(t *testing.T) {
	src := `offset_seconds,rps
# a comment
0,10
30,20
60,30
`
	tr, err := ReadCSV(strings.NewReader(src), "")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Step != 30*time.Second || len(tr.RPS) != 3 || tr.RPS[2] != 30 || tr.Name != "csv" {
		t.Fatalf("parsed wrong: %+v", tr)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad columns": "0,1,2\n",
		"bad offset":  "x,1\n",
		"bad rate":    "0,x\n",
		"negative":    "0,-5\n",
		"descending":  "60,1\n0,2\n",
		"uneven":      "0,1\n60,2\n90,3\n",
		"NaN rate":    "0,NaN\n",
		"+Inf rate":   "0,+Inf\n",
		"NaN offsets": "NaN,1\nNaN,2",
		"sub-ns step": "0,1\n1e-12,2",
		"huge step":   "0,1\n1e300,2",
	}
	for name, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src), "t"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadCSVSingleRowDefaultsStep(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader("0,42\n"), "one")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Step != time.Minute || tr.RPS[0] != 42 {
		t.Fatalf("single-row trace: %+v", tr)
	}
}
