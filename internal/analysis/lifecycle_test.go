package analysis

// Corpus tests for goroutinelife: the bad corpus pins the diagnostics
// with want comments, the good corpus proves the accepted shapes stay
// silent, and the suppress corpus exercises //lint:ignore with a
// justified reason.

import "testing"

func TestGoroutineLifeFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "goroutinelife/bad", "github.com/tanklab/infless/internal/gateway/glbad")
	checkWants(t, u, []*Analyzer{GoroutineLifeAnalyzer})
}

func TestGoroutineLifeAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "goroutinelife/good", "github.com/tanklab/infless/internal/gateway/glgood")
	checkWants(t, u, []*Analyzer{GoroutineLifeAnalyzer})
}

func TestGoroutineLifeSuppression(t *testing.T) {
	u := loadCorpus(t, "goroutinelife/suppress", "github.com/tanklab/infless/internal/gateway/glsupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{GoroutineLifeAnalyzer})
	if len(active) != 0 {
		t.Fatalf("want no active diagnostics, got %v", active)
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "goroutinelife" {
		t.Fatalf("want one suppressed goroutinelife finding, got %v", suppressed)
	}
}
