package analysis

// serverscan forbids per-server iteration of the cluster
// (Cluster.EachServer, the only way to walk the inventory) from the
// scheduler. PR 3 replaced scheduleOne's linear scan over the server
// list with the cluster's free-capacity index (BestFit/FirstFit, today
// sharded) — a 123x win on the 2,000-server cluster — and the only way
// to regress it is to reach for full-inventory iteration again. Reads
// elsewhere (reporting, benchmarks, baselines) are legitimate.

import (
	"go/ast"
	"strings"
)

// serverScanScopes is where the ban applies.
var serverScanScopes = []string{"internal/scheduler"}

// ServerScanAnalyzer implements the serverscan check.
var ServerScanAnalyzer = &Analyzer{
	Name: "serverscan",
	Doc:  "forbid Cluster.EachServer scans in the scheduler; use BestFit/FirstFit",
	Run:  runServerScan,
}

func runServerScan(u *Unit) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range u.Pkgs {
		if !inScope(pkg.Path, serverScanScopes) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcOf(pkg.Info, call)
				if fn == nil || fn.Name() != "EachServer" {
					return true
				}
				named := recvNamed(fn)
				if named == nil || named.Obj().Name() != "Cluster" || named.Obj().Pkg() == nil ||
					!strings.HasSuffix(named.Obj().Pkg().Path(), "internal/cluster") {
					return true
				}
				diags = append(diags, Diagnostic{
					Analyzer: "serverscan",
					Pos:      u.Fset.Position(call.Pos()),
					Message: "Cluster.EachServer() scan in the scheduler; placement must go " +
						"through cluster.BestFit/FirstFit (the sharded free-capacity indexes)",
				})
				return true
			})
		}
	}
	return diags
}
