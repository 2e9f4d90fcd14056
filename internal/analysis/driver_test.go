package analysis

// driver_test.go exercises the lint driver end-to-end: the live tree is
// clean (the check.sh gate depends on that), and a seeded violation in
// a copy of the tree makes the driver exit non-zero.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDriverCleanOnRepo(t *testing.T) {
	var out bytes.Buffer
	if code := Run(&out, repoRootT(t), "text", []string{"./..."}); code != ExitClean {
		t.Fatalf("infless-lint on the live tree: exit %d, want %d\n%s", code, ExitClean, out.String())
	}
}

// errflowSeed drops an error result in internal/cluster, inside
// errflow's control-plane scope.
const errflowSeed = `package cluster

import "errors"

func zzWork() error { return errors.New("x") }

func zzDrop() {
	zzWork()
}
`

// seededTree copies the module to a temp dir and writes errflowSeed
// into its internal/cluster.
func seededTree(t *testing.T) string {
	t.Helper()
	tmp := t.TempDir()
	copyGoTree(t, repoRootT(t), tmp)
	seed := filepath.Join(tmp, "internal", "cluster", "zz_seeded_errflow.go")
	if err := os.WriteFile(seed, []byte(errflowSeed), 0o644); err != nil {
		t.Fatal(err)
	}
	return tmp
}

func TestDriverSeededViolationFails(t *testing.T) {
	var out bytes.Buffer
	code := Run(&out, seededTree(t), "text", []string{"./..."})
	if code != ExitDiags {
		t.Fatalf("seeded violation: exit %d, want %d\n%s", code, ExitDiags, out.String())
	}
	if !strings.Contains(out.String(), "[errflow]") || !strings.Contains(out.String(), "zz_seeded_errflow.go") {
		t.Fatalf("diagnostic should name the seeded errflow violation:\n%s", out.String())
	}
}

func TestDriverPatternFiltersReport(t *testing.T) {
	tmp := seededTree(t)
	var out bytes.Buffer
	if code := Run(&out, tmp, "text", []string{"./internal/sim"}); code != ExitClean {
		t.Fatalf("pattern excluding the violation should exit clean, got %d\n%s", code, out.String())
	}
	out.Reset()
	if code := Run(&out, tmp, "text", []string{"./internal/cluster"}); code != ExitDiags {
		t.Fatalf("pattern covering the violation should exit %d, got %d\n%s", ExitDiags, code, out.String())
	}
}

// TestDriverSeededFlowViolations seeds one violation per whole-program
// analyzer into a copy of the tree and checks both output formats: text
// mode names every seeded analyzer and exits non-zero; JSON mode carries
// the same findings in the stable schema, with the tree's own
// //lint:ignore'd findings present but marked suppressed (the tree's five
// //lint:ignore hotalloc are the only directives left). Before that,
// the violation no analyzer is needed for: a send on the gateway's stop
// channel does not type-check.
func TestDriverSeededFlowViolations(t *testing.T) {
	tmp := t.TempDir()
	copyGoTree(t, repoRootT(t), tmp)
	var out bytes.Buffer
	quitSend := filepath.Join(tmp, "internal", "gateway", "zz_seeded_quit_send.go")
	if err := os.WriteFile(quitSend, []byte(`package gateway

func zzDoubleStop(s *Server) {
	s.quit <- struct{}{}
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := Run(&out, tmp, "text", []string{"./..."}); code != ExitError || !strings.Contains(out.String(), "s.quit") {
		t.Fatalf("a send on Server.quit must fail to type-check: exit %d, want %d naming s.quit\n%s", code, ExitError, out.String())
	}
	if err := os.Remove(quitSend); err != nil {
		t.Fatal(err)
	}

	seeds := map[string]string{
		filepath.Join(tmp, "internal", "cluster", "zz_seeded_errflow.go"): errflowSeed,
		filepath.Join(tmp, "internal", "gateway", "zz_seeded_hotalloc.go"): `package gateway

//lint:hotpath
func zzHot(name string) string {
	return zzDecorate(name)
}

func zzDecorate(s string) string {
	return s + "!"
}
`,
	}
	for path, src := range seeds {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	out.Reset()
	if code := Run(&out, tmp, "text", []string{"./..."}); code != ExitDiags {
		t.Fatalf("seeded violations: exit %d, want %d\n%s", code, ExitDiags, out.String())
	}
	for _, name := range []string{"errflow", "hotalloc"} {
		if !strings.Contains(out.String(), "["+name+"]") {
			t.Errorf("text output should carry a %s finding:\n%s", name, out.String())
		}
	}

	out.Reset()
	if code := Run(&out, tmp, "json", []string{"./..."}); code != ExitDiags {
		t.Fatalf("json run: exit %d, want %d\n%s", code, ExitDiags, out.String())
	}
	var report []JSONDiagnostic
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out.String())
	}
	active := map[string]bool{}
	sawSuppressed := false
	for _, d := range report {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
		if d.Suppressed {
			sawSuppressed = true
			continue
		}
		active[d.Analyzer] = true
	}
	for _, name := range []string{"errflow", "hotalloc"} {
		if !active[name] {
			t.Errorf("json output should carry an unsuppressed %s finding", name)
		}
	}
	if !sawSuppressed {
		t.Error("json output should include the tree's //lint:ignore'd findings as suppressed")
	}
}

func TestDriverRejectsUnknownFormat(t *testing.T) {
	var out bytes.Buffer
	if code := Run(&out, repoRootT(t), "yaml", nil); code != ExitError {
		t.Fatalf("unknown format: exit %d, want %d", code, ExitError)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		offset, pattern, dir string
		want                 bool
	}{
		{"", "./...", "internal/sim", true},
		{"", "./...", "", true},
		{"", "./internal/sim", "internal/sim", true},
		{"", "./internal/sim", "internal/simclock", false},
		{"", "./internal/sim/...", "internal/sim/sub", true},
		{"", "internal/sim", "internal/sim", true},
		{"internal", "./sim", "internal/sim", true},
		{"internal", "./...", "internal/sim", true},
		{"internal", "./...", "cmd/infless-lint", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.offset, c.pattern, c.dir); got != c.want {
			t.Errorf("matchPattern(%q, %q, %q) = %v, want %v", c.offset, c.pattern, c.dir, got, c.want)
		}
	}
}

// copyGoTree copies go.mod and every .go file (skipping .git) so a
// temp copy of the module loads exactly like the original.
func copyGoTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
