// Package flight is the serving stack's crash/latency flight recorder:
// a fixed-size, lock-free ring buffer holding the last N retained
// request traces plus recent notable events (breaches, motion
// fallbacks, apply errors). It is the retention side of tail-based
// sampling — the server opens an obs.Capture on every request, and only
// interesting requests (slow, errored, breached, fallen back,
// cache-miss flights, propagated) graduate into the recorder.
//
// The record path — ObserveLatency, Retain, Emit — takes no locks and
// performs no allocations: slots are atomic.Pointer stores behind a
// monotonically increasing head counter, and the rolling p99 latency
// threshold is recomputed off a fixed window under a CAS try-guard into
// a preallocated scratch buffer. Readers get point-in-time best-effort
// snapshots, which is the right trade for an always-on debug surface.
package flight

import (
	"crypto/rand"
	"encoding/hex"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"policyanon/internal/obs"
)

// Trace-context propagation headers. TraceIDHeader extends the existing
// X-Request-ID threading with a capture identity that survives RPC
// hops; ParentSpanHeader names the caller-side span the remote call
// tree hangs under. The spellings are textproto-canonical (hence
// "Id", not "ID") so Header.Get/Set on the per-request hot path never
// re-canonicalize the key; HTTP header names are case-insensitive, so
// clients may send X-TRACE-ID or any other casing.
const (
	TraceIDHeader    = "X-Trace-Id"
	ParentSpanHeader = "X-Parent-Span"
	ForceHeader      = "X-Debug-Trace"
)

// Retention reasons attached to a retained trace.
const (
	ReasonSlow       = "slow"       // latency above the rolling p99-derived threshold
	ReasonError      = "error"      // HTTP status >= 400 or apply error
	ReasonBreach     = "breach"     // audit sampler observed an anonymity breach
	ReasonFallback   = "fallback"   // motion maintenance fell back to a full rebuild
	ReasonFlight     = "flight"     // request led a CSP cache-miss singleflight
	ReasonPropagated = "propagated" // carried an upstream X-Trace-ID
	ReasonForced     = "forced"     // X-Debug-Trace request header
)

// Trace is one retained request (or motion batch) with its full span
// tree. Span Start offsets are relative to the capture epoch (request
// receipt), so traces from different processes line up approximately
// when stitched.
type Trace struct {
	TraceID      string           `json:"traceID"`
	RID          string           `json:"rid,omitempty"`
	Route        string           `json:"route"`
	Status       int              `json:"status,omitempty"`
	Start        time.Time        `json:"start"`
	Dur          time.Duration    `json:"durNs"`
	Reasons      []string         `json:"reasons"`
	RemoteParent uint64           `json:"remoteParent,omitempty"`
	Spans        []obs.SpanRecord `json:"spans"`
	SpansDropped int              `json:"spansDropped,omitempty"`
}

// Summary is the per-trace line of a flight-recorder dump: everything
// but the span tree.
type Summary struct {
	TraceID string    `json:"traceID"`
	RID     string    `json:"rid,omitempty"`
	Route   string    `json:"route"`
	Status  int       `json:"status,omitempty"`
	Start   time.Time `json:"start"`
	DurMs   float64   `json:"durMs"`
	Reasons []string  `json:"reasons"`
	Spans   int       `json:"spans"`
}

// Summary flattens the trace to its dump line.
func (t *Trace) Summary() Summary {
	return Summary{
		TraceID: t.TraceID, RID: t.RID, Route: t.Route, Status: t.Status,
		Start: t.Start, DurMs: float64(t.Dur.Nanoseconds()) / 1e6,
		Reasons: t.Reasons, Spans: len(t.Spans),
	}
}

// Event is one notable occurrence pinned to the ring independently of
// trace retention: a breach, a motion fallback, an apply error.
type Event struct {
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	RID     string    `json:"rid,omitempty"`
	TraceID string    `json:"traceID,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// Stats is the recorder's aggregate view, reported by the
// /v1/debug/flightrecorder endpoint.
type Stats struct {
	Observed    int64         `json:"observed"` // latencies fed into the rolling window
	Retained    int64         `json:"retained"` // traces ever retained (ring holds the last Capacity)
	Events      int64         `json:"events"`   // events ever emitted
	Capacity    int           `json:"capacity"` // trace ring size
	EventCap    int           `json:"eventCapacity"`
	ThresholdMs float64       `json:"slowThresholdMs"` // current p99-derived slow threshold (0 = warming up)
	Pinned      bool          `json:"thresholdPinned"`
	Threshold   time.Duration `json:"-"`
}

const (
	// DefaultTraces and DefaultEvents size the rings when New is given
	// non-positive capacities.
	DefaultTraces = 256
	DefaultEvents = 1024

	windowSize     = 1024 // rolling latency window (power of two)
	recomputeEvery = 256  // threshold recompute cadence, in observations
	warmupMin      = 128  // observations before anything is called slow
)

// Recorder is the flight recorder. All methods are safe for concurrent
// use; the record path (ObserveLatency, Retain, Emit) is lock-free and
// allocation-free.
type Recorder struct {
	traces  []atomic.Pointer[Trace]
	head    atomic.Uint64
	events  []atomic.Pointer[Event]
	evHead  atomic.Uint64
	window  []atomic.Int64
	wHead   atomic.Uint64
	thresh  atomic.Int64 // slow threshold, ns; 0 = not yet established
	pinned  atomic.Bool  // SetThreshold pins, disabling recompute
	recomp  atomic.Bool  // CAS try-guard around threshold recompute
	scratch []int64      // recompute sort buffer, guarded by recomp
}

// New returns a recorder holding the last traceCap traces and eventCap
// events (non-positive values select the defaults).
func New(traceCap, eventCap int) *Recorder {
	if traceCap <= 0 {
		traceCap = DefaultTraces
	}
	if eventCap <= 0 {
		eventCap = DefaultEvents
	}
	return &Recorder{
		traces:  make([]atomic.Pointer[Trace], traceCap),
		events:  make([]atomic.Pointer[Event], eventCap),
		window:  make([]atomic.Int64, windowSize),
		scratch: make([]int64, 0, windowSize),
	}
}

// ObserveLatency feeds one serving latency into the rolling window and
// reports whether it clears the slow threshold. The threshold is the
// window's p99, recomputed every recomputeEvery observations by
// whichever caller wins the CAS (losers skip — the threshold is a
// heuristic, not an invariant). Nothing is slow until the window has
// warmed up, unless the threshold was pinned with SetThreshold.
func (r *Recorder) ObserveLatency(d time.Duration) bool {
	n := r.wHead.Add(1)
	r.window[(n-1)%windowSize].Store(d.Nanoseconds())
	if !r.pinned.Load() && n%recomputeEvery == 0 {
		r.recompute()
	}
	th := r.thresh.Load()
	if th <= 0 {
		return false
	}
	if !r.pinned.Load() && n < warmupMin {
		return false
	}
	return d.Nanoseconds() > th
}

func (r *Recorder) recompute() {
	if !r.recomp.CompareAndSwap(false, true) {
		return
	}
	defer r.recomp.Store(false)
	buf := r.scratch[:0]
	for i := range r.window {
		if v := r.window[i].Load(); v > 0 {
			buf = append(buf, v)
		}
	}
	if len(buf) == 0 {
		return
	}
	slices.Sort(buf)
	idx := len(buf) * 99 / 100
	if idx >= len(buf) {
		idx = len(buf) - 1
	}
	r.thresh.Store(buf[idx])
}

// SetThreshold pins the slow threshold, disabling the rolling-p99
// recompute — for tests and for operators who want a fixed SLO line.
// A non-positive d unpins and resumes the rolling behaviour.
func (r *Recorder) SetThreshold(d time.Duration) {
	if d <= 0 {
		r.pinned.Store(false)
		return
	}
	r.thresh.Store(d.Nanoseconds())
	r.pinned.Store(true)
}

// Retain stores t into the trace ring, evicting the oldest entry once
// the ring is full.
func (r *Recorder) Retain(t *Trace) {
	if t == nil {
		return
	}
	n := r.head.Add(1)
	r.traces[(n-1)%uint64(len(r.traces))].Store(t)
}

// Emit stores ev into the event ring.
func (r *Recorder) Emit(ev *Event) {
	if ev == nil {
		return
	}
	n := r.evHead.Add(1)
	r.events[(n-1)%uint64(len(r.events))].Store(ev)
}

// Traces returns a newest-first snapshot of the retained traces.
func (r *Recorder) Traces() []*Trace {
	n := r.head.Load()
	cap64 := uint64(len(r.traces))
	count := n
	if count > cap64 {
		count = cap64
	}
	out := make([]*Trace, 0, count)
	for i := uint64(0); i < count; i++ {
		if t := r.traces[(n-1-i)%cap64].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Events returns a newest-first snapshot of the event ring.
func (r *Recorder) Events() []*Event {
	n := r.evHead.Load()
	cap64 := uint64(len(r.events))
	count := n
	if count > cap64 {
		count = cap64
	}
	out := make([]*Event, 0, count)
	for i := uint64(0); i < count; i++ {
		if ev := r.events[(n-1-i)%cap64].Load(); ev != nil {
			out = append(out, ev)
		}
	}
	return out
}

// Lookup returns the newest retained trace whose request ID or trace ID
// matches, or nil. A batch item rid ("<batch-rid>-<i>") matches its
// batch's trace.
func (r *Recorder) Lookup(rid, traceID string) *Trace {
	for _, t := range r.Traces() {
		if traceID != "" && t.TraceID == traceID {
			return t
		}
		if rid != "" && t.RID != "" {
			if t.RID == rid || (len(rid) > len(t.RID) && rid[:len(t.RID)] == t.RID && rid[len(t.RID)] == '-') {
				return t
			}
		}
	}
	return nil
}

// Stats reports the recorder's aggregate counters.
func (r *Recorder) Stats() Stats {
	th := time.Duration(r.thresh.Load())
	return Stats{
		Observed:    int64(r.wHead.Load()),
		Retained:    int64(r.head.Load()),
		Events:      int64(r.evHead.Load()),
		Capacity:    len(r.traces),
		EventCap:    len(r.events),
		ThresholdMs: float64(th.Nanoseconds()) / 1e6,
		Pinned:      r.pinned.Load(),
		Threshold:   th,
	}
}

// tidPrefix distinguishes processes, like audit's ridPrefix: each
// process draws a random prefix at start so concurrently minted trace
// IDs cannot collide across servers.
var tidPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var tidCounter atomic.Uint64

// MintTraceID returns a new process-unique trace identifier, e.g.
// "t9f2c41aa-17", mirroring audit.MintRequestID. It is built with
// appends, not fmt, because it runs once per served request.
func MintTraceID() string {
	b := make([]byte, 0, 24)
	b = append(b, 't')
	b = append(b, tidPrefix...)
	b = append(b, '-')
	b = strconv.AppendUint(b, tidCounter.Add(1), 16)
	return string(b)
}
