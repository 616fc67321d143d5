package obs

// SpanJSON is the wire form of one span of a trace: offsets and durations
// in milliseconds from the trace anchor, children nested in start order.  A
// span still open when the tree was rendered carries open=true and a zero
// duration.
type SpanJSON struct {
	// Name is the span name ("job", "run", "topology", …).
	Name string `json:"name"`
	// StartMs is the span's start offset from the trace anchor.
	StartMs float64 `json:"startMs"`
	// DurationMs is the span's measured duration (0 while open).
	DurationMs float64 `json:"durationMs"`
	// Open marks a span not yet ended when the tree was rendered.
	Open bool `json:"open,omitempty"`
	// Attrs carries the span annotations (JSON renders keys sorted).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Spans are the child spans in start order.
	Spans []*SpanJSON `json:"spans,omitempty"`
}
