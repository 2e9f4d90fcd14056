package analysis

// invariants.go is the declarative table behind the singledef analyzer:
// the single-sourcing contracts established when the shared
// internal/runtime layer was extracted (PR 1/2) and the placement index
// was built (PR 3). Each entry says "this declaration exists exactly
// once in the module, in this file". They replace the grep guards that
// used to live in scripts/check.sh — an AST-level check cannot be
// false-positived by a comment or string literal, and cannot be
// false-negatived by a renamed receiver or reformatted signature.

// DeclKind classifies a top-level declaration.
type DeclKind int

const (
	// KindFunc is a package-level function.
	KindFunc DeclKind = iota
	// KindType is a type declaration.
	KindType
	// KindMethod is a method, matched by receiver base type and name.
	KindMethod
)

func (k DeclKind) String() string {
	switch k {
	case KindFunc:
		return "func"
	case KindType:
		return "type"
	case KindMethod:
		return "method"
	}
	return "decl"
}

// SingleDef declares that one named declaration must exist exactly
// once, in File (module-relative path).
type SingleDef struct {
	Kind DeclKind
	Recv string // receiver base type for KindMethod, "" otherwise
	Name string
	File string
	Why  string
}

// DeclName renders the human-readable declaration name.
func (s SingleDef) DeclName() string {
	if s.Recv != "" {
		return s.Recv + "." + s.Name
	}
	return s.Name
}

// ForbiddenDecl declares a name that must not be declared outside the
// allowed package scope: the private re-implementations of runtime
// policies that the data planes used to grow.
type ForbiddenDecl struct {
	Kind       DeclKind
	Name       string
	AllowedPkg string // module-relative package scope, e.g. "internal/runtime"
	Why        string
}

// SingleDefs is the production single-definition table.
var SingleDefs = []SingleDef{
	{KindFunc, "", "BatchTimeout", "internal/runtime/runtime.go",
		"the Eq. 1 batch-timeout policy is shared by both data planes"},
	{KindFunc, "", "ScaleAheadTarget", "internal/runtime/runtime.go",
		"the alpha scale-ahead sizing rule is shared by both data planes"},
	{KindType, "", "RateEstimator", "internal/runtime/rate.go",
		"one arrival-rate estimator serves the simulator and the gateway"},
	{KindType, "", "Pool", "internal/runtime/pool.go",
		"one instance-pool implementation serves both data planes"},
	{KindType, "", "Histogram", "internal/metrics/histogram.go",
		"every latency quantile in the tree comes from the log-bucketed histogram"},
	{KindMethod, "Histogram", "Quantile", "internal/metrics/histogram.go",
		"Report figures, Prometheus buckets and JSON snapshots share one quantile estimator"},
	{KindType, "", "freeIndex", "internal/cluster/index.go",
		"placement queries go through the one free-capacity index"},
	{KindMethod, "Cluster", "BestFit", "internal/cluster/cluster.go",
		"best-fit placement has one implementation, backed by the shard indexes"},
	{KindType, "", "shard", "internal/cluster/shard.go",
		"the partitioned resource view is defined once, next to its merge rule"},
	{KindMethod, "Cluster", "BestFitShards", "internal/cluster/shard.go",
		"the deterministic shard merge (least key, lowest id on ties) has one implementation"},
	{KindType, "", "FitPool", "internal/cluster/fanout.go",
		"the parallel shard fan-out and its chunk merge live with the shard layout"},
	{KindType, "", "RateStripes", "internal/runtime/rates.go",
		"one striped rate map serves the simulator and the gateway"},
	{KindType, "", "planeRing", "internal/runtime/rates.go",
		"the lock-free plane-wide arrival aggregate has one implementation"},
	{KindFunc, "", "Legacy", "internal/artifact/artifact.go",
		"the scalar 900ms+MB/220MBps cold-start formula has one home; perf calls it"},
	{KindType, "", "Hierarchy", "internal/artifact/artifact.go",
		"the per-tier bandwidth/latency model is defined once, next to its tier enum"},
	{KindType, "", "Cache", "internal/artifact/cache.go",
		"one deterministic per-server artifact LRU serves the engine on both planes"},
}

// HomeType declares a standard-library type that only one package of
// the module may name. The discipline such a type needs (one owner per
// pooled object) lives in that package's API, where the compiler and
// the tests hold it; everywhere else the raw type is a diagnostic
// pointing at the wrapper.
type HomeType struct {
	Pkg, Name string // the type, e.g. "sync", "Pool"
	Home      string // module-relative package scope allowed to name it
	Why       string
}

// HomeTypes is the production home-type table.
var HomeTypes = []HomeType{
	{"sync", "Pool", "internal/pool",
		"pool objects through pool.Of, whose handle is cleared by Put"},
}

// ForbiddenDecls is the production forbidden-declaration table.
var ForbiddenDecls = []ForbiddenDecl{
	{KindFunc, "batchTimeout", "internal/runtime",
		"lifecycle policy helpers live in internal/runtime only"},
	{KindType, "rateEstimator", "internal/runtime",
		"lifecycle policy helpers live in internal/runtime only"},
	{KindType, "instancePool", "internal/runtime",
		"lifecycle policy helpers live in internal/runtime only"},
	{KindType, "shard", "internal/cluster",
		"cluster sharding is the cluster package's concern; other layers see merged views"},
	{KindType, "fitPool", "internal/cluster",
		"shard fan-out pools live next to the merge they depend on"},
	{KindType, "rateStripe", "internal/runtime",
		"rate striping is internal/runtime's concern; planes hold a RateStripes"},
	{KindType, "planeRing", "internal/runtime",
		"plane-wide rate aggregation has one lock-free implementation"},
	{KindType, "artifactCache", "internal/artifact",
		"artifact residency tracking has one implementation; planes hold an artifact.Cache"},
	{KindType, "tierSpec", "internal/artifact",
		"per-tier bandwidth/latency tables live in internal/artifact only"},
}
