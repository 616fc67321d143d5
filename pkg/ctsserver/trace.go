package ctsserver

import (
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/pkg/cts"
)

// trace renders the job's span tree (GET /v1/jobs/{id}/trace) from what the
// job already records: its lifecycle instants and the event log /events
// replays.  The root "job" span is anchored at admission; its "queued" child
// covers the scheduler wait and its "run" child the synthesis.  Under run,
// each stage-start event opens a span named for its stage at the instant the
// log received it, and the matching stage-end closes it with the flow's own
// Elapsed; a stage the run never ended closes at finished.  Rendering reads
// no clock, so a terminal job's trace is frozen and replays byte-identically;
// while the job is live, the spans not yet closed are marked open.
func (j *job) trace() JobTrace {
	j.mu.Lock()
	state, cacheHit := j.state, j.cacheHit
	started, finished := j.started, j.finished
	log := j.log // append-only: the entries read below never change
	j.mu.Unlock()

	terminal := state.Terminal()
	root := &obs.SpanJSON{Name: "job", Open: !terminal}
	queued := &obs.SpanJSON{Name: "queued", Open: !terminal}
	root.Spans = []*obs.SpanJSON{queued}
	if terminal {
		root.DurationMs = ms(finished.Sub(j.created))
		queued.DurationMs = root.DurationMs // born terminal; run below ends it sooner
		root.Attrs = map[string]string{"state": string(state)}
		if cacheHit {
			root.Attrs["cacheHit"] = "true"
		}
	}
	if !started.IsZero() {
		queued.Open, queued.DurationMs = false, ms(started.Sub(j.created))
		run := &obs.SpanJSON{Name: "run", StartMs: queued.DurationMs, Open: !terminal}
		if terminal {
			run.DurationMs = ms(finished.Sub(started))
		}
		root.Spans = append(root.Spans, run)
		// One span per stage execution, in event order.  The flow runs its
		// stages one after another, so a stage-end closes the last span, and
		// only the last span can be open.
		var open *obs.SpanJSON
		var openAt time.Time
		for _, ev := range log {
			var w cts.WireEvent
			if ev.kind != EventTypeFlow || json.Unmarshal(ev.data, &w) != nil {
				continue
			}
			switch {
			case w.Kind == cts.EventStageStart.String():
				open = &obs.SpanJSON{Name: w.Stage, StartMs: ms(ev.at.Sub(j.created)), Open: true}
				openAt = ev.at
				setCount(open, "level", w.Level)
				run.Spans = append(run.Spans, open)
			case w.Kind == cts.EventStageEnd.String() && open != nil && open.Name == w.Stage:
				open.Open, open.DurationMs = false, w.ElapsedMs
				setCount(open, "pairs", w.Pairs)
				setCount(open, "reused", w.Reused)
				open = nil
			}
		}
		if terminal && open != nil {
			open.Open, open.DurationMs = false, ms(finished.Sub(openAt))
		}
	}
	return JobTrace{ID: j.id, Name: j.name, State: state, Spans: []*obs.SpanJSON{root}}
}

// setCount annotates a span with a positive count.
func setCount(sp *obs.SpanJSON, key string, n int) {
	if n <= 0 {
		return
	}
	if sp.Attrs == nil {
		sp.Attrs = map[string]string{}
	}
	sp.Attrs[key] = strconv.Itoa(n)
}

// ms renders a duration in the wire's milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
