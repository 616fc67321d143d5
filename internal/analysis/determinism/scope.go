package determinism

// ScopedPackages is the machine-readable list of packages bound by the
// determinism contract: every stage that participates in producing a
// synthesis Result must be a pure function of its inputs, because
// cts.CanonicalKey-addressed caching (pkg/ctsserver and its disk tier)
// serves cached results for byte-identical requests and the parallel merge
// fan-out is pinned bit-identical to the sequential path.
//
// The ctslint driver runs the determinism and ctxpoll analyzers exactly on
// these import paths (see internal/analysis/driver).  Adding a package here
// is a contract statement: its code may not iterate maps into outputs, read
// the clock or unseeded randomness into result values, or select over
// multiple channels on a result path without an explicit, justified
// //ctslint:allow directive.  ARCHITECTURE.md's "Static analysis layer"
// section documents the workflow around this list.
//
// The list covers the whole Result path, timing, library and the verify
// path (circuit, spice, waveform) included.  Its order-free map ranges carry
// allow directives, and a loop whose first failure names the reported error
// iterates in a fixed order, so even a failing run reports the same error.
//
// The list is of whole packages, so new files in a scoped package are bound
// automatically: internal/mergeroute's hierarchical routing path
// (hierarchical.go), pooled scratch arena (arena.go) and subtree codec
// (codec.go) are covered by the mergeroute entry, and pkg/cts's
// RoutingStrategy plumbing plus the incremental-synthesis files
// (incremental.go, subtreekey.go, subtreecache.go) by the pkg/cts entry.
// The incremental path leans on this contract twice over: subtree-key
// content addressing assumes a merge is a pure function of its inputs, and
// RunIncremental's bit-identity guarantee (delta result == from-scratch
// result) only holds if replaying the level loop against cached sub-trees
// is deterministic.  Hierarchical routing is versioned via Settings.Routing
// in both the result and subtree cache keys, not exempted.
//
// repro/internal/obs is deliberately NOT in scope: it is observability
// metadata, not result-producing code.  Its metrics are order-free atomics
// by design, and the latencies they observe come from the clock; nothing in
// internal/obs may ever feed a Result or a cache key.  The flow itself only
// gained plain counters (Event.Reused) — job traces are rendered in
// pkg/ctsserver from each job's event log, whose entries pkg/ctsserver
// stamps with their arrival instants, outside the contract surface.
// pkg/cts imports internal/obs for two things only, both in MetricsObserver
// and off the Result path: the bucket grid of StageMetrics
// (obs.LatencyBuckets) and the bucket-quantile estimator behind
// StageMetrics.Quantile.
var ScopedPackages = []string{
	"repro/internal/charlib",
	"repro/internal/circuit",
	"repro/internal/clocktree",
	"repro/internal/dme",
	"repro/internal/fit",
	"repro/internal/geom",
	"repro/internal/linalg",
	"repro/internal/mergeroute",
	"repro/internal/moments",
	"repro/internal/spatial",
	"repro/internal/spice",
	"repro/internal/tech",
	"repro/internal/topology",
	"repro/internal/waveform",
	"repro/pkg/cts",
}

// InScope reports whether the import path is bound by the determinism
// contract.
func InScope(path string) bool {
	for _, p := range ScopedPackages {
		if path == p {
			return true
		}
	}
	return false
}
