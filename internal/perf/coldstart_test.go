package perf_test

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
)

// TestColdStartTime pins the plausibility of the cold-start figure that
// accompanies this package's execution-time model. perf itself no longer
// prices cold starts; the engine calls artifact.Legacy, so that is what
// is checked here, from an external test package so perf keeps no import
// of artifact.
func TestColdStartTime(t *testing.T) {
	small := artifact.Legacy(100)
	large := artifact.Legacy(2500)
	if small >= large {
		t.Error("cold start should grow with model size")
	}
	if small < 900*time.Millisecond {
		t.Errorf("cold start %v below container boot floor", small)
	}
	if large < 10*time.Second {
		t.Errorf("2.5 GB model cold start %v implausibly fast", large)
	}
}
