package analysis

// The analyzer tests load testdata corpora under scope-matching import
// paths and check diagnostics against `// want "regex"` comments: every
// want must be matched by a diagnostic on its line, and every
// diagnostic must be claimed by a want.

import (
	"regexp"
	"strings"
	"testing"
)

func repoRootT(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func loadCorpus(t *testing.T, rel, asPath string) *Unit {
	t.Helper()
	l, err := NewLoader(repoRootT(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("internal/analysis/testdata/src/"+rel, asPath)
	if err != nil {
		t.Fatal(err)
	}
	return &Unit{Fset: l.Fset, Pkgs: []*Package{pkg}}
}

var wantRE = regexp.MustCompile(`^want "(.*)"$`)

type wantComment struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, u *Unit) []*wantComment {
	t.Helper()
	var wants []*wantComment
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					m := wantRE.FindStringSubmatch(text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := u.Fset.Position(c.Pos())
					wants = append(wants, &wantComment{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkWants runs the analyzers and reconciles diagnostics with the
// corpus's want comments.
func checkWants(t *testing.T, u *Unit, analyzers []*Analyzer) {
	t.Helper()
	wants := collectWants(t, u)
	for _, d := range RunAll(u, analyzers) {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestWallclockFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "wallclock/bad", "github.com/tanklab/infless/internal/sim/wcbad")
	checkWants(t, u, []*Analyzer{WallclockAnalyzer})
}

func TestWallclockAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "wallclock/good", "github.com/tanklab/infless/internal/sim/wcgood")
	checkWants(t, u, []*Analyzer{WallclockAnalyzer})
}

func TestWallclockIgnoresOutOfScopePackages(t *testing.T) {
	// The same wall-clock-reading corpus under a non-deterministic path
	// (the loadgen is wall-clock by design) yields nothing.
	u := loadCorpus(t, "wallclock/bad", "github.com/tanklab/infless/internal/loadgen/wcbad")
	if diags := RunAll(u, []*Analyzer{WallclockAnalyzer}); len(diags) != 0 {
		t.Fatalf("expected no diagnostics out of scope, got %v", diags)
	}
}

// TestSuppressionDirective covers both directive paths: a justified
// //lint:ignore removes its finding; a reason-less one is rejected and
// suppresses nothing.
func TestSuppressionDirective(t *testing.T) {
	u := loadCorpus(t, "wallclock/suppress", "github.com/tanklab/infless/internal/sim/wcsuppress")
	diags := RunAll(u, []*Analyzer{WallclockAnalyzer})
	var wallclock, directive int
	for _, d := range diags {
		switch d.Analyzer {
		case "wallclock":
			wallclock++
			if !strings.Contains(d.Message, "time.Since") {
				t.Errorf("surviving wallclock finding should be the unsuppressed time.Since: %s", d)
			}
		case "directive":
			directive++
			if !strings.Contains(d.Message, "non-empty reason") {
				t.Errorf("directive diagnostic should demand a reason: %s", d)
			}
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if wallclock != 1 || directive != 1 {
		t.Fatalf("want 1 surviving wallclock + 1 directive diagnostic, got %d + %d: %v", wallclock, directive, diags)
	}
}

func TestMapOrderFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "maporder/bad", "github.com/tanklab/infless/internal/sim/mobad")
	checkWants(t, u, []*Analyzer{MapOrderAnalyzer})
}

func TestMapOrderAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "maporder/good", "github.com/tanklab/infless/internal/sim/mogood")
	checkWants(t, u, []*Analyzer{MapOrderAnalyzer})
}

func TestSingleDef(t *testing.T) {
	root := repoRootT(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	home, err := l.LoadDir("internal/analysis/testdata/src/singledef/home", "github.com/tanklab/infless/internal/sdhome")
	if err != nil {
		t.Fatal(err)
	}
	stray, err := l.LoadDir("internal/analysis/testdata/src/singledef/stray", "github.com/tanklab/infless/internal/sdstray")
	if err != nil {
		t.Fatal(err)
	}
	homeFile := "internal/analysis/testdata/src/singledef/home/home.go"
	u := &Unit{
		Fset: l.Fset,
		Pkgs: []*Package{home, stray},
		Invariants: []SingleDef{
			{KindFunc, "", "Anchor", homeFile, "test"},
			{KindType, "", "Widget", homeFile, "test"},
			{KindMethod, "Widget", "Span", homeFile, "test"},
			{KindFunc, "", "Missing", homeFile, "test"},
		},
		Forbidden: []ForbiddenDecl{
			{KindType, "rateEstimator", "internal/runtime", "test"},
		},
	}
	diags := RunAll(u, []*Analyzer{SingleDefAnalyzer})
	expect := []string{
		"func Anchor must be defined exactly once",
		"func Missing is not defined anywhere",
		"forbidden type rateEstimator outside internal/runtime",
	}
	if len(diags) != len(expect) {
		t.Fatalf("want %d diagnostics, got %d: %v", len(expect), len(diags), diags)
	}
	for _, want := range expect {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q in %v", want, diags)
		}
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "Widget") || strings.Contains(d.Message, "Span") {
			t.Errorf("clean invariant flagged: %s", d)
		}
	}
}

// TestSingleDefProductionTables guards the production tables themselves
// against the live tree: every guarded declaration exists, once, at
// home.
func TestSingleDefProductionTables(t *testing.T) {
	l, err := NewLoader(repoRootT(t))
	if err != nil {
		t.Fatal(err)
	}
	u, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAll(u, []*Analyzer{SingleDefAnalyzer}); len(diags) != 0 {
		t.Fatalf("production singledef invariants violated: %v", diags)
	}
}

func TestServerScanFlagsBadCorpus(t *testing.T) {
	u := loadCorpus(t, "serverscan/bad", "github.com/tanklab/infless/internal/scheduler/ssbad")
	checkWants(t, u, []*Analyzer{ServerScanAnalyzer})
}

func TestServerScanAcceptsGoodCorpus(t *testing.T) {
	u := loadCorpus(t, "serverscan/good", "github.com/tanklab/infless/internal/scheduler/ssgood")
	checkWants(t, u, []*Analyzer{ServerScanAnalyzer})
}

func TestServerScanIgnoresOtherPackages(t *testing.T) {
	// The same scan from a bench-scoped path is legal (reporting code may
	// read the server list).
	u := loadCorpus(t, "serverscan/bad", "github.com/tanklab/infless/internal/bench/ssbad")
	if diags := RunAll(u, []*Analyzer{ServerScanAnalyzer}); len(diags) != 0 {
		t.Fatalf("expected no diagnostics out of scope, got %v", diags)
	}
}
