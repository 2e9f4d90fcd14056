package analysis

// Corpus tests for hotalloc and errflow, plus the suppression and
// unused-directive behavior built on RunAllDetail.

import (
	"strings"
	"testing"
)

func TestHotAllocFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "hotalloc/bad", "github.com/tanklab/infless/internal/gateway/habad")
	checkWants(t, u, []*Analyzer{HotAllocAnalyzer})
}

func TestHotAllocAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "hotalloc/good", "github.com/tanklab/infless/internal/gateway/hagood")
	checkWants(t, u, []*Analyzer{HotAllocAnalyzer})
}

// TestHotAllocSuppression: the justified allocation is silenced and
// surfaces in the suppressed half; the stale directive is reported.
func TestHotAllocSuppression(t *testing.T) {
	u := loadCorpus(t, "hotalloc/suppress", "github.com/tanklab/infless/internal/gateway/hasupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{HotAllocAnalyzer})
	if len(active) != 1 {
		t.Fatalf("want exactly the stale-directive diagnostic, got %v", active)
	}
	if active[0].Analyzer != "directive" || !strings.Contains(active[0].Message, "suppresses nothing") {
		t.Errorf("expected unused-directive diagnostic, got %s", active[0])
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "hotalloc" {
		t.Fatalf("want one suppressed hotalloc finding, got %v", suppressed)
	}
}

// TestHotAllocDirectiveMisuse: //lint:hotpath on anything that is not a
// function declaration is a diagnosed mistake, not a silent no-op. (The
// diagnostic lands on the directive's own line, so this is asserted
// directly rather than through want comments.)
func TestHotAllocDirectiveMisuse(t *testing.T) {
	u := loadCorpus(t, "hotalloc/misuse", "github.com/tanklab/infless/internal/gateway/hamis")
	diags := RunAll(u, []*Analyzer{HotAllocAnalyzer})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "applies only to function declarations") {
		t.Fatalf("want one misplaced-directive diagnostic, got %v", diags)
	}
}

// TestAnalyzerRoster pins the registered analyzer set: a new analyzer
// must be added here deliberately, and none may silently drop out.
func TestAnalyzerRoster(t *testing.T) {
	want := []string{"wallclock", "maporder", "singledef", "serverscan",
		"lockedcallback", "hotalloc", "errflow", "goroutinelife"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}

func TestErrFlowFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "errflow/bad", "github.com/tanklab/infless/internal/gateway/efbad")
	checkWants(t, u, []*Analyzer{ErrFlowAnalyzer})
}

func TestErrFlowAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "errflow/good", "github.com/tanklab/infless/internal/gateway/efgood")
	checkWants(t, u, []*Analyzer{ErrFlowAnalyzer})
}

func TestErrFlowIgnoresOutOfScopePackages(t *testing.T) {
	// The same error-dropping corpus under a data-plane path (the sim's
	// error handling has its own conventions) yields nothing.
	u := loadCorpus(t, "errflow/bad", "github.com/tanklab/infless/internal/sim/efbad")
	if diags := RunAll(u, []*Analyzer{ErrFlowAnalyzer}); len(diags) != 0 {
		t.Fatalf("expected no diagnostics out of scope, got %v", diags)
	}
}

func TestErrFlowSuppression(t *testing.T) {
	u := loadCorpus(t, "errflow/suppress", "github.com/tanklab/infless/internal/gateway/efsupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{ErrFlowAnalyzer})
	if len(active) != 0 {
		t.Fatalf("want no active diagnostics, got %v", active)
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "errflow" {
		t.Fatalf("want one suppressed errflow finding, got %v", suppressed)
	}
}

// TestUnusedDirectiveOutsideRunSet: a directive naming an analyzer that
// is not part of the run is left alone, so partial runs stay quiet.
func TestUnusedDirectiveOutsideRunSet(t *testing.T) {
	u := loadCorpus(t, "hotalloc/suppress", "github.com/tanklab/infless/internal/gateway/hasupp2")
	active, _ := RunAllDetail(u, []*Analyzer{ErrFlowAnalyzer})
	if len(active) != 0 {
		t.Fatalf("directives naming un-run analyzers must not be reported, got %v", active)
	}
}
