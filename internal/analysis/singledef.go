package analysis

// singledef enforces the invariants.go tables: each listed declaration
// exists exactly once in the module, in its home file, the forbidden
// private policy names never reappear outside their allowed package,
// and the HomeTypes (sync/atomic's Pointer, sync's Pool) are named only
// inside the package that wraps them. This is the compiler-grade replacement
// for check.sh's grep guards.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SingleDefAnalyzer implements the singledef check.
var SingleDefAnalyzer = &Analyzer{
	Name: "singledef",
	Doc:  "enforce single-definition and forbidden-declaration invariants",
	Run:  runSingleDef,
}

// topDecl is one top-level declaration occurrence.
type topDecl struct {
	kind DeclKind
	recv string
	name string
	pkg  *Package
	file string
	pos  token.Pos
}

func runSingleDef(u *Unit) []Diagnostic {
	invariants := u.Invariants
	if invariants == nil {
		invariants = SingleDefs
	}
	forbidden := u.Forbidden
	if forbidden == nil {
		forbidden = ForbiddenDecls
	}

	var decls []topDecl
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			file := u.Fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					kind, recv := KindFunc, ""
					if d.Recv != nil && len(d.Recv.List) > 0 {
						kind = KindMethod
						recv = recvBaseName(d.Recv.List[0].Type)
					}
					decls = append(decls, topDecl{kind, recv, d.Name.Name, pkg, file, d.Pos()})
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						decls = append(decls, topDecl{KindType, "", ts.Name.Name, pkg, file, ts.Pos()})
					}
				}
			}
		}
	}

	var diags []Diagnostic
	for _, inv := range invariants {
		var hits []topDecl
		for _, d := range decls {
			if d.kind == inv.Kind && d.name == inv.Name && (inv.Kind != KindMethod || d.recv == inv.Recv) {
				hits = append(hits, d)
			}
		}
		if len(hits) == 0 {
			diags = append(diags, Diagnostic{
				Analyzer: "singledef",
				Pos:      token.Position{Filename: inv.File},
				Message: inv.Kind.String() + " " + inv.DeclName() + " is not defined anywhere; expected in " +
					inv.File + " (" + inv.Why + ")",
			})
			continue
		}
		inHome := 0
		for _, h := range hits {
			if h.file == inv.File {
				inHome++
				continue
			}
			diags = append(diags, Diagnostic{
				Analyzer: "singledef",
				Pos:      u.Fset.Position(h.pos),
				Message: inv.Kind.String() + " " + inv.DeclName() + " must be defined exactly once, in " +
					inv.File + " (" + inv.Why + ")",
			})
		}
		if inHome > 1 {
			diags = append(diags, Diagnostic{
				Analyzer: "singledef",
				Pos:      token.Position{Filename: inv.File},
				Message:  inv.Kind.String() + " " + inv.DeclName() + " is declared more than once in " + inv.File,
			})
		}
	}

	for _, fd := range forbidden {
		for _, d := range decls {
			if d.kind != fd.Kind || d.name != fd.Name {
				continue
			}
			if inScope(d.pkg.Path, []string{fd.AllowedPkg}) {
				continue
			}
			diags = append(diags, Diagnostic{
				Analyzer: "singledef",
				Pos:      u.Fset.Position(d.pos),
				Message: "forbidden " + fd.Kind.String() + " " + fd.Name + " outside " + fd.AllowedPkg +
					": " + fd.Why,
			})
		}
	}
	return append(diags, homeTypeDiags(u)...)
}

// homeTypeDiags flags every mention of a HomeTypes type outside its
// home package. Resolution is by go/types object, so an import alias
// does not hide a use and a local type that happens to be called Pool
// is not one.
func homeTypeDiags(u *Unit) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		for id, obj := range pkg.Info.Uses {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.Pkg() == nil {
				continue
			}
			for _, ht := range HomeTypes {
				if tn.Name() == ht.Name && tn.Pkg().Path() == ht.Pkg && !inScope(pkg.Path, []string{ht.Home}) {
					diags = append(diags, Diagnostic{
						Analyzer: "singledef",
						Pos:      u.Fset.Position(id.Pos()),
						Message:  tn.Pkg().Name() + "." + ht.Name + " may be named only in " + ht.Home + ": " + ht.Why,
					})
				}
			}
		}
	}
	return diags
}

// recvBaseName unwraps a receiver type expression to its base type name
// (handles pointers and generic instantiations like *Pool[T]).
func recvBaseName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
