package server

import (
	"fmt"
	"net/http"
	"time"

	"policyanon/internal/obs"
	"policyanon/internal/obs/flight"
)

// tailDecision is the retention side of tail-based sampling, run at the
// end of every traced serving request. A request's full span tree
// graduates into the flight recorder when anything made it interesting:
// an error status, latency above the rolling p99-derived threshold, a
// capture mark voted by a lower layer (audit breach, motion fallback,
// CSP cache-miss flight), a propagated upstream trace (the caller's leg
// stays fetchable by its trace ID), or an explicit
// X-Debug-Trace header. It reports whether the trace was retained, in
// which case the caller links the latency histogram bucket to the trace
// ID as an exemplar.
func (s *Server) tailDecision(cap *obs.Capture, rid, route string, status int, start time.Time, elapsed time.Duration, remote, forced bool) bool {
	slow := s.recorder.ObserveLatency(elapsed)
	var reasons []string
	if status >= http.StatusBadRequest {
		reasons = append(reasons, flight.ReasonError)
	}
	if slow {
		reasons = append(reasons, flight.ReasonSlow)
	}
	reasons = append(reasons, cap.Marks()...)
	if remote {
		reasons = append(reasons, flight.ReasonPropagated)
	}
	if forced {
		reasons = append(reasons, flight.ReasonForced)
	}
	if len(reasons) == 0 {
		return false
	}
	s.recorder.Retain(&flight.Trace{
		TraceID: cap.TraceID(), RID: rid, Route: route, Status: status,
		Start: start, Dur: elapsed, Reasons: reasons,
		RemoteParent: cap.RemoteParent(),
		Spans:        cap.Spans(), SpansDropped: cap.Dropped(),
	})
	for _, reason := range reasons {
		s.reg.Counter("flight_retained:" + reason).Inc()
	}
	return true
}

// handleFlightRecorder serves GET /v1/debug/flightrecorder: the
// recorder's aggregate stats, the retained traces newest-first (summary
// lines — fetch a full span tree via /v1/debug/trace), and the recent
// notable events. ?format=chrome instead merges every retained trace
// into one Chrome trace_event document, each trace on its own lane
// group, positioned on a shared wall-clock axis.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	traces := s.recorder.Traces()
	switch r.URL.Query().Get("format") {
	case "", "json":
		sums := make([]flight.Summary, len(traces))
		for i, t := range traces {
			sums[i] = t.Summary()
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"stats":  s.recorder.Stats(),
			"traces": sums,
			"events": s.recorder.Events(),
		})
	case "chrome":
		var origin time.Time
		for _, t := range traces {
			if origin.IsZero() || t.Start.Before(origin) {
				origin = t.Start
			}
		}
		var spans []obs.SpanRecord
		for i, t := range traces {
			laneBase := uint64(i+1) << 32
			shift := t.Start.Sub(origin)
			for _, sp := range t.Spans {
				sp.Lane += laneBase
				sp.Start += shift
				spans = append(spans, sp)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeSpans(w, spans)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q", r.URL.Query().Get("format")))
	}
}

// handleDebugTrace serves GET /v1/debug/trace?rid=...|tid=...: one
// retained trace with its full span tree, as JSON or as a Chrome
// trace_event document with ?format=chrome. A batch item rid
// ("<batch-rid>-<i>") resolves to its batch's trace. 404 means the
// request either was never retained (it wasn't interesting — see
// docs/OBSERVABILITY.md for the retention policy) or has been evicted
// from the ring.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rid, tid := q.Get("rid"), q.Get("tid")
	if rid == "" && tid == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("one of rid= or tid= is required"))
		return
	}
	t := s.recorder.Lookup(rid, tid)
	if t == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no retained trace for rid=%q tid=%q", rid, tid))
		return
	}
	switch q.Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, t)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeSpans(w, t.Spans)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q", q.Get("format")))
	}
}
