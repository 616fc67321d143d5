package cts

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/charlib"
	"repro/internal/geom"
	"repro/internal/spice"
	"repro/internal/tech"
	"repro/internal/topology"
)

// Settings are the effective (defaulted) numeric parameters of a Flow; they
// are echoed on every Result so downstream consumers can reproduce a run.
type Settings struct {
	// SlewLimit is the hard slew constraint in ps (default 100, as in the
	// paper's experiments).
	SlewLimit float64 `json:"slewLimit"`
	// SlewTarget is the synthesis-time target that leaves a margin below the
	// limit (default 0.8 * SlewLimit).
	SlewTarget float64 `json:"slewTarget"`
	// Alpha and Beta weight distance (um) and delay difference (ps) in the
	// nearest-neighbour cost of equation 4.1.  Defaults: 1 and 20.
	Alpha float64 `json:"alpha"`
	// Beta is Alpha's delay-difference counterpart (see Alpha).
	Beta float64 `json:"beta"`
	// GridSize is the initial routing grid resolution R (default 45).
	GridSize int `json:"gridSize"`
	// Correction selects the H-structure handling.
	Correction Correction `json:"correction"`
	// Topology selects the pairing strategy of the default topology stage
	// (default TopologyGreedy, the paper's matching on the spatial index).
	Topology TopologyStrategy `json:"topology"`
	// Routing selects the maze-routing path of the default merge-routing
	// stage (default RoutingFlat, the full-resolution expansion).
	Routing RoutingStrategy `json:"routing"`
}

// config is the assembled Flow configuration.
type config struct {
	tech        *tech.Technology
	library     *charlib.Library
	settings    Settings
	source      *geom.Point
	observer    Observer
	parallelism int

	verify     bool
	verifyOpts spice.Options

	subtreeCache SubtreeCache

	topology TopologyBuilder
	merger   MergeRouter
	bufferer Bufferer
	timer    Timer
	verifier Verifier
}

// Option configures a Flow at construction time.
type Option func(*config)

// WithLibrary selects the delay/slew library used for every timing lookup.
// A nil library (the default) selects the closed-form analytic fallback.
func WithLibrary(lib *charlib.Library) Option {
	return func(c *config) { c.library = lib }
}

// WithSlewLimit sets the hard slew constraint in ps.
func WithSlewLimit(ps float64) Option {
	return func(c *config) { c.settings.SlewLimit = ps }
}

// WithSlewTarget sets the synthesis-time slew target in ps; the default
// leaves a 20% margin below the limit.
func WithSlewTarget(ps float64) Option {
	return func(c *config) { c.settings.SlewTarget = ps }
}

// WithCostWeights sets alpha and beta of the nearest-neighbour pairing cost
// (equation 4.1).
func WithCostWeights(alpha, beta float64) Option {
	return func(c *config) { c.settings.Alpha, c.settings.Beta = alpha, beta }
}

// WithGrid sets the initial routing grid resolution R of the merge-routing
// maze (Section 4.2.2).
func WithGrid(r int) Option {
	return func(c *config) { c.settings.GridSize = r }
}

// WithCorrection selects the H-structure handling (Section 4.1.2).
func WithCorrection(mode Correction) Option {
	return func(c *config) { c.settings.Correction = mode }
}

// WithTopologyStrategy selects the pairing strategy of the default topology
// stage: TopologyGreedy (the paper's nearest-neighbour matching, O(n log n)
// on the spatial index and bit-identical to the brute-force reference) or
// TopologyBipartition (recursive geometric median splits).  It has no effect
// on pairing when a custom stage is installed with WithTopologyBuilder,
// which replaces the default stage entirely, but New still validates it.
func WithTopologyStrategy(s TopologyStrategy) Option {
	return func(c *config) { c.settings.Topology = s }
}

// WithRoutingStrategy selects the maze-routing path of the default
// merge-routing stage: RoutingFlat (the full-resolution expansion,
// bit-identical to earlier releases) or RoutingHierarchical (coarse corridor
// search plus corridor-restricted refinement, with a guaranteed fallback to
// the flat expansion).  It has no effect when a custom stage is installed
// with WithMergeRouter, which replaces the default stage entirely.
func WithRoutingStrategy(s RoutingStrategy) Option {
	return func(c *config) { c.settings.Routing = s }
}

// WithSource fixes the clock source location; without it the source is
// placed at the final tree root.
func WithSource(p geom.Point) Option {
	return func(c *config) {
		pos := p
		c.source = &pos
	}
}

// WithObserver installs a progress observer.
func WithObserver(o Observer) Option {
	return func(c *config) { c.observer = o }
}

// WithParallelism bounds the intra-run merge fan-out: every level's pairs are
// dispatched to a pool of at most n workers (the merges within a level are
// independent, Section 4.1.1).  n <= 0 (the default) selects GOMAXPROCS; 1
// forces the fully sequential path.  Results are collected in deterministic
// pair order, so the synthesized tree is bit-identical for every n.
//
// The fan-out composes with RunBatch: each of the batch's workers runs its
// own level scheduler, so the total goroutine budget is roughly workers * n.
// Custom MergeRouters installed with WithMergeRouter must be safe for the
// resulting concurrent Merge calls; the default router is.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithSubtreeCache installs a content-addressed cache of merged sub-trees.
// A merge's key hashes the settings and its two inputs' keys, and a single
// sink's key hashes the settings and the sink, so a key names a sub-tree's
// whole merge history.  Every run of the flow writes its merges through to
// the cache; RunIncremental additionally consults it before routing each
// merge, reusing sub-trees unchanged since earlier runs.  The cache may be
// shared across flows and concurrent runs, but only within one technology
// and characterization library (the key does not cover them, exactly as
// CanonicalKey does not).
//
// The option is incompatible with WithMergeRouter: cached values are the
// default router's output, and replaying them under a different merge stage
// would break the bit-identity contract.
func WithSubtreeCache(sc SubtreeCache) Option {
	return func(c *config) { c.subtreeCache = sc }
}

// WithVerification enables the verify stage: every run ends with the golden
// transient simulation and Result.Verification is populated.
func WithVerification(opt spice.Options) Option {
	return func(c *config) {
		c.verify = true
		c.verifyOpts = opt
	}
}

// WithTopologyBuilder replaces the default nearest-neighbour pairing stage.
func WithTopologyBuilder(tb TopologyBuilder) Option {
	return func(c *config) { c.topology = tb }
}

// WithMergeRouter replaces the default merge-routing stage.  The router is
// shared across RunBatch workers and must be safe for concurrent use.
func WithMergeRouter(mr MergeRouter) Option {
	return func(c *config) { c.merger = mr }
}

// WithBufferer replaces the default source-feed buffering stage.
func WithBufferer(b Bufferer) Option {
	return func(c *config) { c.bufferer = b }
}

// WithTimer replaces the default library-based timing stage.
func WithTimer(t Timer) Option {
	return func(c *config) { c.timer = t }
}

// WithVerifier replaces the default transient-simulation verify stage; it
// runs when verification is enabled with WithVerification and populates
// Result.Verification.  (Result.Verify, by contrast, is a convenience that
// always runs the default transient simulation on demand.)
func WithVerifier(v Verifier) Option {
	return func(c *config) { c.verifier = v }
}

// Flow is a reusable synthesis pipeline bound to one technology and
// configuration.  A Flow is safe for concurrent use by multiple goroutines
// as long as any custom stages installed on it are.
type Flow struct {
	cfg config
	// subtreePrefix is the precomputed settings-dependent hash prefix of
	// every subtree key (set only when a subtree cache is configured): the
	// keying hot path hashes it directly instead of re-marshaling the
	// settings for every merge.
	subtreePrefix []byte
	// emitMu serializes observer invocations: events may originate from
	// RunBatch workers and from the intra-run level scheduler, but the
	// observer sees them one at a time, in a valid per-level order.
	emitMu sync.Mutex
}

// Parallelism returns the effective intra-run merge fan-out bound.
func (f *Flow) Parallelism() int {
	if f.cfg.parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return f.cfg.parallelism
}

// ErrSlewLimit reports a slew limit that a tree does not meet.  New wraps it
// when the limit is at or below the technology's source slew, the slew the
// clock source itself presents, so that no tree can meet it; Run, RunBatch
// and RunIncremental wrap it when the timed tree's worst slew exceeds the
// limit.
var ErrSlewLimit = errors.New("cts: slew limit not met")

// New assembles a Flow for the technology, applying Settings.Effective's
// defaults to every parameter not set by an option and the analytic library
// when none is given.  It refuses a slew limit at or below the technology's
// source slew with an error wrapping ErrSlewLimit.
func New(t *tech.Technology, opts ...Option) (*Flow, error) {
	if t == nil {
		return nil, errors.New("cts: nil technology")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	c := config{tech: t}
	for _, opt := range opts {
		opt(&c)
	}

	s, err := c.settings.Effective()
	if err != nil {
		return nil, err
	}
	if s.SlewLimit <= t.SourceSlew {
		return nil, fmt.Errorf("%w: a %v ps limit is not above the technology's %v ps source slew",
			ErrSlewLimit, s.SlewLimit, t.SourceSlew)
	}
	c.settings = s
	if c.library == nil {
		c.library = charlib.NewAnalytic(t)
	}
	if c.subtreeCache != nil && c.merger != nil {
		return nil, errors.New("cts: WithSubtreeCache requires the default merge-routing stage (cached sub-trees would not match a custom MergeRouter)")
	}

	if c.topology == nil {
		var m topology.Matcher = topology.Greedy{}
		if s.Topology == TopologyBipartition {
			m = topology.Bipartition{}
		}
		c.topology = &matcherTopology{alpha: s.Alpha, beta: s.Beta, matcher: m}
	}
	if c.bufferer == nil {
		c.bufferer = &feedBufferer{tech: t, slewTarget: s.SlewTarget}
	}
	if c.timer == nil {
		c.timer = &libraryTimer{library: c.library}
	}
	if c.verifier == nil {
		c.verifier = &simVerifier{opts: c.verifyOpts}
	}
	f := &Flow{cfg: c}
	if c.subtreeCache != nil {
		f.subtreePrefix = subtreeKeyPrefix(c.settings)
	}
	return f, nil
}

// maxGridSize is the largest grid resolution R that Effective accepts: the
// finest the repository runs (BenchmarkMergeRouteScale's sep_50mm_fine),
// which keeps hierarchical routing's fine-grid regime reachable.  A 4 x 3 mm
// pair at R = 240 expands 241 x 190 cells per side; R itself is not capped
// by mergeroute.Config.MaxGridSize, which bounds only the dynamic growth.
const maxGridSize = 240

// Effective returns the settings with New's defaults applied: a 100 ps slew
// limit, a target at 80% of the limit, alpha/beta = 1/20 when both are
// zero and a grid resolution of 45.  It rejects a non-finite slew limit,
// slew target, alpha or beta, a slew target above the limit, a grid
// resolution above 240, unknown routing or topology strategies and an
// unknown correction mode.  The result is what a Flow runs with, what
// Result echoes and what CanonicalKey hashes, so any layer that keys or
// routes a request without building a Flow calls it.
func (s Settings) Effective() (Settings, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"slew limit", s.SlewLimit}, {"slew target", s.SlewTarget}, {"alpha", s.Alpha}, {"beta", s.Beta}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return Settings{}, fmt.Errorf("cts: %s %v is not finite", f.name, f.v)
		}
	}
	if s.SlewLimit <= 0 {
		s.SlewLimit = 100
	}
	if s.SlewTarget <= 0 {
		s.SlewTarget = 0.8 * s.SlewLimit
	}
	if s.SlewTarget > s.SlewLimit {
		return Settings{}, fmt.Errorf("cts: slew target %v exceeds the limit %v", s.SlewTarget, s.SlewLimit)
	}
	if s.Alpha == 0 && s.Beta == 0 {
		s.Alpha, s.Beta = 1, 20
	}
	if s.GridSize <= 0 {
		s.GridSize = 45
	}
	if s.GridSize > maxGridSize {
		return Settings{}, fmt.Errorf("cts: grid size %d exceeds the maximum %d", s.GridSize, maxGridSize)
	}
	if err := routingCodec.check(s.Routing); err != nil {
		return Settings{}, err
	}
	if err := topologyCodec.check(s.Topology); err != nil {
		return Settings{}, err
	}
	if err := correctionCodec.check(s.Correction); err != nil {
		return Settings{}, err
	}
	return s, nil
}

// Settings returns the effective numeric parameters after defaulting.
func (f *Flow) Settings() Settings { return f.cfg.settings }
