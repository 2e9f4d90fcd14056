package analysis

// driver.go is the reusable body of cmd/infless-lint: load the module,
// run the suite, print diagnostics. The whole module is always loaded
// (hotalloc's call graph crosses packages); the package patterns only
// filter which packages' diagnostics are reported.

import (
	"encoding/json"
	"fmt"
	"io"
	"path"
	"path/filepath"
	"strings"
)

// Exit codes.
const (
	ExitClean = 0 // no diagnostics
	ExitDiags = 1 // at least one unsuppressed diagnostic
	ExitError = 2 // the module failed to load or type-check
)

// JSONDiagnostic is one finding in the -format=json output. The schema
// is stable — CI parses it into GitHub error annotations.
type JSONDiagnostic struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// Run loads the module containing dir, runs the suite over the packages
// matching patterns (Go-style: "./...", "./internal/sim",
// "./internal/bench/..."), prints diagnostics to out, and returns the
// process exit code. format "text" prints one line per finding; "json"
// emits a JSONDiagnostic array that also includes
// //lint:ignore-suppressed findings (marked suppressed, never counted
// toward the exit code).
func Run(out io.Writer, dir, format string, patterns []string) int {
	if format != "text" && format != "json" {
		fmt.Fprintf(out, "infless-lint: unknown format %q (want text or json)\n", format)
		return ExitError
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(out, "infless-lint:", err)
		return ExitError
	}
	loader, err := NewLoader(root)
	if err != nil {
		fmt.Fprintln(out, "infless-lint:", err)
		return ExitError
	}
	unit, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(out, "infless-lint:", err)
		return ExitError
	}

	// Patterns are relative to dir; package dirs are relative to the
	// module root. Rebase the patterns onto the root.
	offset, err := filepath.Rel(root, dir)
	if err != nil || offset == "." {
		offset = ""
	}
	offset = filepath.ToSlash(offset)

	match := func(pkgDir string) bool {
		for _, p := range patterns {
			if matchPattern(offset, p, pkgDir) {
				return true
			}
		}
		return false
	}

	active, suppressed := RunAllDetail(unit, Analyzers())
	dirOf := dirIndex(unit)
	n := 0
	if format == "json" {
		report := []JSONDiagnostic{}
		emit := func(diags []Diagnostic, suppressed bool) {
			for _, d := range diags {
				if !match(dirOf[d.Pos.Filename]) {
					continue
				}
				report = append(report, JSONDiagnostic{
					File:       d.Pos.Filename,
					Line:       d.Pos.Line,
					Col:        d.Pos.Column,
					Analyzer:   d.Analyzer,
					Message:    d.Message,
					Suppressed: suppressed,
				})
				if !suppressed {
					n++
				}
			}
		}
		emit(active, false)
		emit(suppressed, true)
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(out, "infless-lint:", err)
			return ExitError
		}
	} else {
		for _, d := range active {
			if !match(dirOf[d.Pos.Filename]) {
				continue
			}
			fmt.Fprintln(out, d)
			n++
		}
		if n > 0 {
			fmt.Fprintf(out, "infless-lint: %d issue(s)\n", n)
		}
	}
	if n > 0 {
		return ExitDiags
	}
	return ExitClean
}

// dirIndex maps every loaded file (module-relative) to its package dir.
func dirIndex(u *Unit) map[string]string {
	idx := map[string]string{}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			idx[u.Fset.Position(f.Pos()).Filename] = pkg.Dir
		}
	}
	return idx
}

// matchPattern reports whether the module-relative package directory
// pkgDir matches pattern (itself relative to offset within the module).
func matchPattern(offset, pattern, pkgDir string) bool {
	p := strings.TrimPrefix(pattern, "./")
	if p == "." {
		p = ""
	}
	recursive := false
	if p == "..." {
		p, recursive = "", true
	} else if rest, ok := strings.CutSuffix(p, "/..."); ok {
		p, recursive = rest, true
	}
	p = path.Join(offset, p)
	if p == "." {
		p = ""
	}
	if recursive {
		return p == "" || pkgDir == p || strings.HasPrefix(pkgDir, p+"/")
	}
	return pkgDir == p
}
