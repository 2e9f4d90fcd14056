package workload

import (
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV checks the trace parser never panics and that accepted
// traces are well-formed.
func FuzzReadCSV(f *testing.F) {
	f.Add("offset_seconds,rps\n0,10\n60,20\n")
	f.Add("0,1\n")
	f.Add("# comment\n\n0,0\n")
	f.Add("x,y\n")
	f.Add("0,1\n30,2\n90,3\n")
	f.Add("0,NaN\n")
	f.Add("0,+Inf\n")
	f.Add("NaN,1\nNaN,2")
	f.Add("0,1\n1e-12,2")
	f.Add("0,1\n1e300,2")
	f.Add("0,0\n7000000000,0") // each step fits a Duration, the two do not
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ReadCSV(strings.NewReader(src), "fuzz")
		if err != nil {
			return
		}
		if tr.Step <= 0 {
			t.Fatalf("accepted trace has step %v", tr.Step)
		}
		if len(tr.RPS) == 0 {
			t.Fatal("accepted trace is empty")
		}
		for i, r := range tr.RPS {
			if !validRate(r) {
				t.Fatalf("accepted trace has rate %v at %d", r, i)
			}
		}
		// Derived quantities must be finite and non-negative.
		if tr.Mean() < 0 || tr.Peak() < 0 || tr.Duration() <= 0 {
			t.Fatal("derived stats invalid")
		}
		_ = tr.RateAt(time.Hour)
	})
}

// FuzzReadAzureCSV checks the Azure-format parser never panics.
func FuzzReadAzureCSV(f *testing.F) {
	f.Add("HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,fn,http,60,120\n")
	f.Add("o,a,fn,http,0\n")
	f.Add(",,,,\n")
	f.Add("o,a,fn,http,NaN\n")
	f.Add("o,a,fn,http,0,+Inf\n")
	f.Fuzz(func(t *testing.T, src string) {
		rows, err := ReadAzureCSV(strings.NewReader(src), 16)
		if err != nil {
			return
		}
		for _, r := range rows {
			if r.Trace == nil || len(r.Trace.RPS) == 0 {
				t.Fatal("accepted row with empty trace")
			}
			for i, v := range r.Trace.RPS {
				if !validRate(v) {
					t.Fatalf("accepted row has rate %v at minute %d", v, i+1)
				}
			}
			Classify(r.Trace) // must not panic
		}
	})
}
