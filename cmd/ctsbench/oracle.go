package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/tech"
	"repro/pkg/cts"
	"repro/pkg/ctsserver"
)

// oracleDesigns is how many served designs the oracle re-synthesizes, plus
// one ECO delta it submits itself.  It draws them from each client's first
// oracleCandidates designs (and the cache_hits pool), so the draw does not
// depend on how many designs the host's speed let the windows serve.
const (
	oracleDesigns    = 3
	oracleCandidates = 8
)

// oracle re-synthesizes a seeded sample of the run's served designs with a
// direct in-process cts.Flow.Run and requires the served result to be
// byte-identical, ignoring elapsedMs and incremental (the two fields that
// describe how a result was produced, not what it is).  One more design is an
// ECO delta of the first, submitted with baseJob after the windows, so the
// incremental path is checked on every workload.  It returns one line per
// mismatch.
func (r *runner) oracle(ctx context.Context) ([]string, error) {
	var served []*design
	for _, c := range r.clients {
		served = append(served, c.own[:min(len(c.own), oracleCandidates)]...)
	}
	served = append(served, r.rig.pool...)
	if len(served) == 0 {
		return nil, fmt.Errorf("oracle: no design was served")
	}
	rng := rand.New(rand.NewSource(jobSeed(r.opts.seed, -2, -2)))
	picked := make([]*design, 0, oracleDesigns+1)
	for _, i := range rng.Perm(len(served)) {
		if len(picked) == oracleDesigns {
			break
		}
		picked = append(picked, served[i])
	}

	eco, err := r.submitDelta(ctx, picked[0], rng.Int63())
	if err != nil {
		return nil, fmt.Errorf("oracle ECO delta: %w", err)
	}
	picked = append(picked, eco)

	flow, err := cts.New(tech.Default())
	if err != nil {
		return nil, err
	}
	var mismatches []string
	for i, d := range picked {
		res, err := flow.Run(ctx, ctsserver.SinksToCTS(d.sinks))
		if err != nil {
			return nil, fmt.Errorf("oracle run %d: %w", i, err)
		}
		direct, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		want, err := withoutRunFields(direct)
		if err != nil {
			return nil, err
		}
		got, err := withoutRunFields(d.first)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			mismatches = append(mismatches, fmt.Sprintf("oracle design %d (%d sinks): served %s, direct run %s", i, len(d.sinks), got, want))
		}
	}
	return mismatches, nil
}

// submitDelta resubmits d (a cache hit, which mints a job id to base on) and
// then a 0.5% move of it with baseJob set, returning the delta as a served
// design.
func (r *runner) submitDelta(ctx context.Context, d *design, seed int64) (*design, error) {
	base, err := submitAndWait(ctx, r.rig.entry, ctsserver.JobRequest{Sinks: d.sinks})
	if err != nil {
		return nil, err
	}
	sinks := variant(bench.Benchmark{Sinks: ctsserver.SinksToCTS(d.sinks)}, "move", 0.005, seed)
	st, err := submitAndWait(ctx, r.rig.entry, ctsserver.JobRequest{Sinks: sinks, BaseJob: base.ID})
	if err != nil {
		return nil, err
	}
	result, err := compact(st.Result)
	if err != nil {
		return nil, err
	}
	return &design{sinks: sinks, first: result}, nil
}

// withoutRunFields re-encodes a result JSON without elapsedMs and
// incremental, with its keys sorted.
func withoutRunFields(result []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(result, &m); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	delete(m, "elapsedMs")
	delete(m, "incremental")
	return json.Marshal(m)
}
