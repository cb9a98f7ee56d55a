package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one Chrome trace_event "complete" ("X") event. Times are
// microseconds, the unit the trace_event format mandates.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form of the trace_event
// format, which chrome://tracing and Perfetto both accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the retained spans as Chrome trace_event JSON.
// Each display lane becomes a thread row; nesting within a lane is
// inferred by the viewer from time containment, matching the span
// parent/child structure because children start and end inside their
// parents.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeSpans(w, t.Spans())
}

// WriteChromeSpans exports an arbitrary span list — a Tracer buffer, one
// flight-recorder capture, or a retained trace from /v1/debug/trace — in the same
// Chrome trace_event form as WriteChromeTrace.
func WriteChromeSpans(w io.Writer, spans []SpanRecord) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "policyanon",
			Ph:   "X",
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  s.Lane,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
