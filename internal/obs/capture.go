package obs

import (
	"context"
	"sync"
	"time"
)

// DefaultCaptureLimit bounds the spans one Capture retains. A serving
// request produces a handful of spans (root, csp.serve, per-item spans
// on batches), so the limit only matters for pathological fan-outs; the
// overflow is counted, not silently lost.
const DefaultCaptureLimit = 4096

// Capture collects the finished spans of one call tree — typically one
// HTTP request or one motion batch — independently of the Tracer's
// global retention setting. It is the unit of tail-based sampling: the
// serving layer opens a Capture on every request, spans accumulate into
// it as they finish, and at request end the capture is either retained
// into the flight recorder (slow, errored, breached, ...) or discarded
// wholesale. Aggregate statistics still flow to the Tracer either way.
//
// A Capture is safe for concurrent use: batch items finish spans from
// worker goroutines.
type Capture struct {
	traceID string
	epoch   time.Time
	limit   int

	// remoteParent is the span ID, in the *caller's* process, that this
	// capture's roots hang under when the trace was propagated across an
	// RPC boundary (X-Trace-ID / X-Parent-Span headers).
	remoteParent uint64

	mu      sync.Mutex
	spans   []SpanRecord
	marks   []string
	dropped int

	// spanBuf backs the first len(spanBuf) entries of spans, so a typical
	// request's span tree (root + csp.serve + an audit or flight span)
	// lives inside the Capture's own allocation; batch fan-outs spill to
	// a heap slice.
	spanBuf [4]SpanRecord
}

// NewCapture returns a capture identified by traceID retaining up to
// limit spans (limit < 1 selects DefaultCaptureLimit). The epoch — the
// zero point of the retained spans' Start offsets — is the call time.
func NewCapture(traceID string, limit int) *Capture {
	if limit < 1 {
		limit = DefaultCaptureLimit
	}
	c := &Capture{traceID: traceID, epoch: time.Now(), limit: limit}
	c.spans = c.spanBuf[:0]
	return c
}

// TraceID returns the capture's identity, minted locally or adopted
// from an upstream caller.
func (c *Capture) TraceID() string {
	if c == nil {
		return ""
	}
	return c.traceID
}

// SetRemoteParent records the caller-side span ID this capture's root
// spans belong under (trace propagation across an RPC hop).
func (c *Capture) SetRemoteParent(id uint64) {
	if c != nil {
		c.remoteParent = id
	}
}

// RemoteParent returns the propagated caller-side parent span ID, or 0.
func (c *Capture) RemoteParent() uint64 {
	if c == nil {
		return 0
	}
	return c.remoteParent
}

// Reserve makes room for n more spans, up to the capture's limit, in one
// allocation. A handler that knows its fan-out (a batch of m items
// finishes 2m+1 spans) calls it before the spans start finishing, instead
// of letting the buffer double its way there under the lock.
func (c *Capture) Reserve(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if want := min(len(c.spans)+n, c.limit); want > cap(c.spans) {
		c.spans = append(make([]SpanRecord, 0, want), c.spans...)
	}
	c.mu.Unlock()
}

func (c *Capture) add(rec SpanRecord) {
	c.mu.Lock()
	if len(c.spans) < c.limit {
		c.spans = append(c.spans, rec)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// Mark tags the capture with a retention reason ("breach",
// "fallback", "flight", ...). Marks are deduplicated; cross-cutting
// layers call it through MarkCapture without knowing whether a capture
// is open. The tail-sampling decision reads them at request end.
func (c *Capture) Mark(reason string) {
	if c == nil || reason == "" {
		return
	}
	c.mu.Lock()
	for _, m := range c.marks {
		if m == reason {
			c.mu.Unlock()
			return
		}
	}
	c.marks = append(c.marks, reason)
	c.mu.Unlock()
}

// Marks returns the capture's accumulated retention reasons.
func (c *Capture) Marks() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]string(nil), c.marks...)
	c.mu.Unlock()
	return out
}

// Spans returns a copy of the captured spans in finish order. The copy is
// deep — the attrs move into one array of their own — so that a trace
// retained from it keeps neither the spans nor the capture alive.
func (c *Capture) Spans() []SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]SpanRecord(nil), c.spans...)
	n := 0
	for i := range out {
		n += len(out[i].Attrs)
	}
	attrs := make([]Attr, 0, n)
	for i := range out {
		if from := len(attrs); len(out[i].Attrs) > 0 {
			attrs = append(attrs, out[i].Attrs...)
			out[i].Attrs = attrs[from:len(attrs):len(attrs)]
		}
	}
	return out
}

// Dropped reports spans discarded past the capture limit.
func (c *Capture) Dropped() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// WithCapture attaches c to the call tree of the returned context:
// every span started from it (and from contexts derived from it) also
// records into c when it ends. It requires a tracer in ctx — captures
// piggyback on the span machinery — and is a no-op otherwise.
func WithCapture(ctx context.Context, c *Capture) context.Context {
	sp, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok || sp.tracer == nil || c == nil {
		return ctx
	}
	carrier := *sp
	carrier.cap = c
	return context.WithValue(ctx, ctxKey{}, &carrier)
}

// StartRootCaptured fuses WithTracerCapture and Start for the serving
// hot path: install tr, attach c, and open the root span of the call
// tree in a single context value and a single span allocation. The
// returned span is the capture's root (parent 0). A nil tr returns ctx
// unchanged and a nil span.
func StartRootCaptured(ctx context.Context, tr *Tracer, c *Capture, name string) (context.Context, *Span) {
	if tr == nil {
		return ctx, nil
	}
	sp := &Span{
		tracer: tr,
		cap:    c,
		name:   name,
		id:     tr.nextID.Add(1),
		lane:   tr.nextLane.Add(1),
		start:  time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// CaptureFrom returns the capture attached to ctx's call tree, or nil.
func CaptureFrom(ctx context.Context) *Capture {
	if sp, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return sp.cap
	}
	return nil
}

// MarkCapture tags ctx's capture with a retention reason, if one is
// open. It is how the audit sampler, the CSP singleflight, and the
// motion maintainer vote a request interesting without depending on the
// serving layer.
func MarkCapture(ctx context.Context, reason string) {
	if sp, ok := ctx.Value(ctxKey{}).(*Span); ok {
		sp.cap.Mark(reason)
	}
}
