package workload

// azure.go parses the Azure Functions 2019 invocation dataset format —
// the production trace the paper uses for its dynamic workloads
// ("Serverless in the Wild", ATC'20; files like
// invocations_per_function_md.anon.d01.csv). Each row is one function
// with 1,440 per-minute invocation counts:
//
//	HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440
//
// Counts convert to requests-per-second at 1-minute resolution.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// AzureFunctionTrace is one parsed row of the Azure invocation dataset.
type AzureFunctionTrace struct {
	Owner    string
	App      string
	Function string
	Trigger  string
	Trace    *Trace
}

// ReadAzureCSV parses an Azure-format invocation file. maxRows bounds how
// many function rows are read (0 = all); large dataset files hold tens of
// thousands.
func ReadAzureCSV(r io.Reader, maxRows int) ([]AzureFunctionTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	var out []AzureFunctionTrace
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if lineNo == 1 && strings.HasPrefix(strings.ToLower(line), "hashowner") {
			continue // header
		}
		parts := strings.Split(line, ",")
		if len(parts) < 5 {
			return nil, fmt.Errorf("workload: azure line %d: %d columns, want >= 5", lineNo, len(parts))
		}
		counts := parts[4:]
		rps := make([]float64, len(counts))
		for i, c := range counts {
			n, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: azure line %d minute %d: %v", lineNo, i+1, err)
			}
			if !validRate(n) {
				return nil, fmt.Errorf("workload: azure line %d minute %d: count %g is not a finite non-negative number", lineNo, i+1, n)
			}
			rps[i] = n / 60.0
		}
		out = append(out, AzureFunctionTrace{
			Owner:    parts[0],
			App:      parts[1],
			Function: parts[2],
			Trigger:  parts[3],
			Trace: &Trace{
				Name: "azure/" + parts[2],
				Step: time.Minute,
				RPS:  rps,
			},
		})
		if maxRows > 0 && len(out) >= maxRows {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: no azure rows parsed")
	}
	return out, nil
}

// Classify labels a trace with the paper's taxonomy (Figure 10): mostly
// idle traffic is "sporadic"; high peak-to-mean traffic is "bursty";
// everything else is "periodic". The thresholds follow the synthetic
// generators in this package.
func Classify(t *Trace) string {
	if len(t.RPS) == 0 {
		return "sporadic"
	}
	zero := 0
	for _, r := range t.RPS {
		if r == 0 {
			zero++
		}
	}
	idleFrac := float64(zero) / float64(len(t.RPS))
	if idleFrac > 0.5 {
		return "sporadic"
	}
	mean := t.Mean()
	if mean == 0 {
		return "sporadic"
	}
	if t.Peak()/mean > 3 {
		return "bursty"
	}
	return "periodic"
}
