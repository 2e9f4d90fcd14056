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
	if code := Main(&out, repoRootT(t), []string{"./..."}); code != ExitClean {
		t.Fatalf("infless-lint on the live tree: exit %d, want %d\n%s", code, ExitClean, out.String())
	}
}

func TestDriverSeededViolationFails(t *testing.T) {
	tmp := t.TempDir()
	copyGoTree(t, repoRootT(t), tmp)
	seed := filepath.Join(tmp, "internal", "sim", "zz_seeded_violation.go")
	src := `package sim

import "time"

func seededViolation() time.Duration { return time.Since(time.Unix(0, 0)) }
`
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := Main(&out, tmp, []string{"./..."})
	if code != ExitDiags {
		t.Fatalf("seeded violation: exit %d, want %d\n%s", code, ExitDiags, out.String())
	}
	if !strings.Contains(out.String(), "wallclock") || !strings.Contains(out.String(), "zz_seeded_violation.go") {
		t.Fatalf("diagnostic should name the seeded wallclock violation:\n%s", out.String())
	}
}

func TestDriverPatternFiltersReport(t *testing.T) {
	tmp := t.TempDir()
	copyGoTree(t, repoRootT(t), tmp)
	seed := filepath.Join(tmp, "internal", "sim", "zz_seeded_violation.go")
	src := `package sim

import "time"

func seededViolation() time.Duration { return time.Since(time.Unix(0, 0)) }
`
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := Main(&out, tmp, []string{"./internal/cluster"}); code != ExitClean {
		t.Fatalf("pattern excluding the violation should exit clean, got %d\n%s", code, out.String())
	}
	out.Reset()
	if code := Main(&out, tmp, []string{"./internal/sim"}); code != ExitDiags {
		t.Fatalf("pattern covering the violation should exit %d, got %d\n%s", ExitDiags, code, out.String())
	}
}

// TestDriverSeededHomeTypes: the raw type whose discipline lives in
// internal/pool is diagnosed anywhere else.
func TestDriverSeededHomeTypes(t *testing.T) {
	tmp := t.TempDir()
	copyGoTree(t, repoRootT(t), tmp)
	seed := filepath.Join(tmp, "internal", "loadgen", "zz_seeded_pool.go")
	src := `package loadgen

import "sync"

var zzPool sync.Pool
`
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := Main(&out, tmp, []string{"./..."}); code != ExitDiags {
		t.Fatalf("seeded home-type violation: exit %d, want %d\n%s", code, ExitDiags, out.String())
	}
	for _, want := range []string{
		"zz_seeded_pool.go:5:17: [singledef] sync.Pool may be named only in internal/pool",
		"infless-lint: 1 issue(s)", // and nothing else: pool itself is clean
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}

// TestDriverSeededFlowViolations seeds one violation per whole-program
// analyzer into a copy of the tree and checks both output formats: text
// mode names every seeded analyzer and exits non-zero; JSON mode carries
// the same findings in the stable schema, with the tree's own
// //lint:ignore'd findings present but marked suppressed. Before that,
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
	if code := Main(&out, tmp, []string{"./..."}); code != ExitError || !strings.Contains(out.String(), "s.quit") {
		t.Fatalf("a send on Server.quit must fail to type-check: exit %d, want %d naming s.quit\n%s", code, ExitError, out.String())
	}
	if err := os.Remove(quitSend); err != nil {
		t.Fatal(err)
	}

	seeds := map[string]string{
		filepath.Join(tmp, "internal", "cluster", "zz_seeded_errflow.go"): `package cluster

import "errors"

func zzWork() error { return errors.New("x") }

func zzDrop() {
	zzWork()
}
`,
		filepath.Join(tmp, "internal", "gateway", "zz_seeded_hotalloc.go"): `package gateway

//lint:hotpath
func zzHot(name string) string {
	return zzDecorate(name)
}

func zzDecorate(s string) string {
	return s + "!"
}
`,
		filepath.Join(tmp, "internal", "gateway", "zz_seeded_goroutinelife.go"): `package gateway

var zzTick int

func zzSpin() {
	go func() {
		for {
			zzTick++
		}
	}()
}
`,
	}
	for path, src := range seeds {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	out.Reset()
	if code := Main(&out, tmp, []string{"./..."}); code != ExitDiags {
		t.Fatalf("seeded violations: exit %d, want %d\n%s", code, ExitDiags, out.String())
	}
	for _, name := range []string{"errflow", "hotalloc", "goroutinelife"} {
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
	for _, name := range []string{"errflow", "hotalloc", "goroutinelife"} {
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
