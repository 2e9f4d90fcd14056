package analysis

// Corpus tests for hotalloc, plus the suppression and unused-directive
// behavior built on RunAllDetail.

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

// TestHotAllocSuppression: a justified directive silences the finding on
// the line below it when it stands alone (hasupp line 11), and on its
// own line when it trails code (line 17); both surface in the suppressed
// half. The stale directive (line 29) is reported (TestSuppressionDirective
// covers the reason-less one on line 22).
func TestHotAllocSuppression(t *testing.T) {
	u := loadCorpus(t, "hotalloc/suppress", "github.com/tanklab/infless/internal/gateway/hasupp")
	active, suppressed := RunAllDetail(u, []*Analyzer{HotAllocAnalyzer})
	if len(suppressed) != 2 || suppressed[0].Analyzer != "hotalloc" || suppressed[1].Analyzer != "hotalloc" ||
		suppressed[0].Pos.Line != 11 || suppressed[1].Pos.Line != 17 {
		t.Fatalf("want suppressed hotalloc findings on lines 11 and 17, got %v", suppressed)
	}
	var stale []Diagnostic
	for _, d := range active {
		if strings.Contains(d.Message, "suppresses nothing") {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 || stale[0].Analyzer != "directive" || stale[0].Pos.Line != 29 {
		t.Fatalf("want one unused-directive diagnostic, on line 29; got %v", active)
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
	want := []string{"maporder", "hotalloc"}
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

// TestUnusedDirectiveOutsideRunSet: a directive naming an analyzer that
// is not part of the run is left alone, so partial runs stay quiet; a
// reason-less directive is malformed whatever the run set.
func TestUnusedDirectiveOutsideRunSet(t *testing.T) {
	u := loadCorpus(t, "hotalloc/suppress", "github.com/tanklab/infless/internal/gateway/hasupp2")
	active, _ := RunAllDetail(u, []*Analyzer{MapOrderAnalyzer})
	if len(active) != 1 || !strings.Contains(active[0].Message, "non-empty reason") {
		t.Fatalf("directives naming un-run analyzers must not be reported, only the reason-less one; got %v", active)
	}
}
