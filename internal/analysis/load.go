package analysis

// load.go parses and type-checks the module using only the standard
// library: module-internal imports are resolved recursively from the
// source tree, everything else (stdlib) goes through go/importer's
// default export-data importer. File names are recorded relative to the
// module root, so diagnostics print stable repo-relative paths.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// Loader loads packages of one module for analysis.
type Loader struct {
	Fset   *token.FileSet
	Module string // module path from go.mod

	root    string
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader creates a loader rooted at the module directory.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	return &Loader{
		Fset:    token.NewFileSet(),
		Module:  module,
		root:    root,
		std:     importer.Default(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// Import implements types.Importer: module-internal paths load from the
// source tree, everything else delegates to the stdlib importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.load(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadAll loads every package directory in the module and returns the
// unit for analysis.
func (l *Loader) LoadAll() (*Unit, error) {
	dirs, err := packageDirs(l.root)
	if err != nil {
		return nil, err
	}
	u := &Unit{Fset: l.Fset}
	for _, dir := range dirs {
		pkg, err := l.load(dir, l.pathFor(dir))
		if err != nil {
			return nil, err
		}
		u.Pkgs = append(u.Pkgs, pkg)
	}
	return u, nil
}

// LoadDir loads a single directory under an explicit import-path
// identity (used by tests to analyze testdata corpora as if they lived
// in a target package).
func (l *Loader) LoadDir(rel, asPath string) (*Package, error) {
	return l.load(filepath.Join(l.root, filepath.FromSlash(rel)), asPath)
}

func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// packageDirs lists the directories under root holding non-test Go
// files, skipping testdata, vendor, hidden and underscore directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

func (l *Loader) load(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		abs := filepath.Join(dir, name)
		rel, err := filepath.Rel(l.root, abs)
		if err != nil {
			rel = abs
		}
		src, err := os.ReadFile(abs)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, filepath.ToSlash(rel), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	relDir, err := filepath.Rel(l.root, dir)
	if err != nil || relDir == "." {
		relDir = ""
	}
	pkg := &Package{
		Path:  path,
		Dir:   filepath.ToSlash(relDir),
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
