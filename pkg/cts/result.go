package cts

import (
	"encoding/json"
	"time"

	"repro/internal/clocktree"
	"repro/internal/spice"
)

// Result is the outcome of one synthesis run.
type Result struct {
	// Tree is the synthesized buffered clock tree.
	Tree *clocktree.Tree
	// Timing is the library-based timing analysis of the final tree.
	Timing *clocktree.Timing
	// Stats summarizes the tree's physical composition.
	Stats clocktree.Stats
	// Levels is the number of topology levels that were built.
	Levels int
	// Flippings counts the pairs changed by H-structure correction.
	Flippings int
	// Verification holds the transient-simulation measurements when the
	// verify stage was enabled with WithVerification; nil otherwise.
	Verification *clocktree.VerifyResult
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Settings echoes the effective flow parameters (after defaulting).
	Settings Settings
	// Incremental reports subtree-cache reuse when the run went through
	// RunIncremental; nil otherwise.
	Incremental *IncrementalStats

	// With a subtree cache configured, effSinks retains the effective
	// (defaulted) sinks in input order and subtrees every sub-tree the run
	// keyed, so this result can serve as the base of a later RunIncremental,
	// which diffs the sinks and harvests the sub-trees into its cache.
	effSinks []Sink
	subtrees []keyedSubtree
}

// keyedSubtree is one merge of a run: its key and its encoded value, as
// written through to the subtree cache or decoded from it.
type keyedSubtree struct {
	key   string
	value []byte
}

// Verify runs the golden transient simulation of the synthesized tree on
// demand (for flows that did not enable the verify stage).  A nil opt uses
// defaults.
func (r *Result) Verify(opt *spice.Options) (*clocktree.VerifyResult, error) {
	var o spice.Options
	if opt != nil {
		o = *opt
	}
	return clocktree.Verify(r.Tree, o)
}

// timingJSON is the wire form of the timing summary (the per-node maps key
// on tree pointers and are deliberately not serialized).
type timingJSON struct {
	WorstSlew  float64 `json:"worstSlew"`
	Skew       float64 `json:"skew"`
	MaxLatency float64 `json:"maxLatency"`
	MinLatency float64 `json:"minLatency"`
}

// verificationJSON is the wire form of the transient verification summary.
type verificationJSON struct {
	WorstSlew  float64 `json:"worstSlew"`
	Skew       float64 `json:"skew"`
	MaxLatency float64 `json:"maxLatency"`
	MinLatency float64 `json:"minLatency"`
	Stages     int     `json:"stages"`
}

// statsJSON is the wire form of the tree composition summary.
type statsJSON struct {
	Sinks         int            `json:"sinks"`
	Buffers       int            `json:"buffers"`
	BuffersBySize map[string]int `json:"buffersBySize"`
	MergeNodes    int            `json:"mergeNodes"`
	TotalWire     float64        `json:"totalWireUm"`
	TotalCap      float64        `json:"totalCapFF"`
	MaxDepth      int            `json:"maxDepth"`
}

// resultJSON is the serialized form of a Result.
type resultJSON struct {
	Settings     Settings          `json:"settings"`
	Levels       int               `json:"levels"`
	Flippings    int               `json:"flippings"`
	ElapsedMs    float64           `json:"elapsedMs"`
	Stats        statsJSON         `json:"stats"`
	Timing       *timingJSON       `json:"timing,omitempty"`
	Verification *verificationJSON `json:"verification,omitempty"`
	Incremental  *IncrementalStats `json:"incremental,omitempty"`
}

// MarshalJSON serializes the run summary: effective settings, tree
// composition, the timing and (when present) verification numbers.  The tree
// structure itself is not serialized.
func (r *Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{
		Settings:    r.Settings,
		Levels:      r.Levels,
		Flippings:   r.Flippings,
		ElapsedMs:   float64(r.Elapsed) / float64(time.Millisecond),
		Incremental: r.Incremental,
		Stats: statsJSON{
			Sinks:         r.Stats.Sinks,
			Buffers:       r.Stats.Buffers,
			BuffersBySize: r.Stats.BuffersBySize,
			MergeNodes:    r.Stats.MergeNodes,
			TotalWire:     r.Stats.TotalWire,
			TotalCap:      r.Stats.TotalCap,
			MaxDepth:      r.Stats.MaxDepth,
		},
	}
	if r.Timing != nil {
		out.Timing = &timingJSON{
			WorstSlew:  r.Timing.WorstSlew,
			Skew:       r.Timing.Skew,
			MaxLatency: r.Timing.MaxLatency,
			MinLatency: r.Timing.MinLatency,
		}
	}
	if r.Verification != nil {
		out.Verification = &verificationJSON{
			WorstSlew:  r.Verification.WorstSlew,
			Skew:       r.Verification.Skew,
			MaxLatency: r.Verification.MaxLatency,
			MinLatency: r.Verification.MinLatency,
			Stages:     r.Verification.Stages,
		}
	}
	return json.Marshal(out)
}
