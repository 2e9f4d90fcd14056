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

// TestSuppressionDirective: a reason-less //lint:ignore is rejected and
// suppresses nothing, so the finding it stands beside survives
// (TestHotAllocSuppression covers the justified directives in the same
// corpus).
func TestSuppressionDirective(t *testing.T) {
	u := loadCorpus(t, "hotalloc/suppress", "github.com/tanklab/infless/internal/gateway/hasupp")
	var diags []Diagnostic
	for _, d := range RunAll(u, []*Analyzer{HotAllocAnalyzer}) {
		if d.Pos.Line == 22 {
			diags = append(diags, d)
		}
	}
	// Sorted by position: the call comes before its trailing directive.
	if len(diags) != 2 || diags[0].Analyzer != "hotalloc" || diags[1].Analyzer != "directive" ||
		!strings.Contains(diags[1].Message, "non-empty reason") {
		t.Fatalf("want the unsuppressed hotalloc finding and a directive diagnostic demanding a reason, on line 22; got %v", diags)
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
