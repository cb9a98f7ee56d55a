// Package obs is the zero-dependency tracing layer of the anonymization
// stack: hierarchical wall-clock spans carried through context.Context,
// aggregated into per-phase timing statistics and exportable as Chrome
// trace_event JSON (loadable in chrome://tracing or Perfetto).
//
// The stable span taxonomy (see docs/OBSERVABILITY.md) names the phases of
// the paper's Algorithm 1 / Section V pipeline — tree.build,
// bulkdp.build ⊃ bulkdp.combine, bulkdp.extract, bulkdp.update,
// parallel.worker, csp.serve — so that traces stay
// comparable across benchmark runs and PRs.
//
// Tracing is opt-in per call tree: a Tracer is installed with WithTracer
// and picked up by Start. When no tracer is installed, Start returns a nil
// *Span whose methods are no-ops; the disabled path performs no
// allocations and no locking, so instrumented hot paths cost nothing in
// production configurations that do not trace.
package obs

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"policyanon/internal/metrics"
)

// Attr is one key/value span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation. A nil *Span is valid and inert: every
// method is a no-op, which is how the disabled-tracing path stays free.
type Span struct {
	tracer *Tracer
	cap    *Capture
	name   string
	id     uint64
	parent uint64
	lane   uint64
	start  time.Time
	attrs  []Attr
	// attrBuf backs attrs for the spans of the serving path, which carry
	// at most three (http.request: route, rid, status), so annotating one
	// allocates nothing. Whatever outlives the call tree copies the attrs
	// out (Capture.Spans, the tracer's own retention): a record that
	// pointed in here would keep the span, and its capture, alive.
	attrBuf [3]Attr
}

// ctxKey carries the current *Span (whose tracer field identifies the
// installed Tracer) through a context chain.
type ctxKey struct{}

// DefaultSpanLimit bounds the number of finished spans a Tracer retains
// for export; beyond it spans still feed the aggregates but are dropped
// from the trace buffer (Dropped reports how many).
const DefaultSpanLimit = 1 << 16

// Tracer collects finished spans and per-phase aggregates. It is safe for
// concurrent use by multiple goroutines. A span that finishes while
// retention is off (KeepSpans(false), the server's setting) takes no
// tracer-wide lock: its phase's aggregate is found through agg and
// updated with atomics.
type Tracer struct {
	nextID   atomic.Uint64
	nextLane atomic.Uint64
	keep     atomic.Bool
	reg      atomic.Pointer[metrics.Registry]
	// agg is copy-on-write: the first span of a new name replaces the map
	// under mu; every later one only loads it.
	agg atomic.Pointer[map[string]*phaseAgg]

	mu      sync.Mutex
	epoch   time.Time
	spans   []SpanRecord
	dropped int64
	limit   int
}

// phaseAgg aggregates the finished spans of one name. count is bumped
// last, so a reader that sees count > 0 sees a min and max that cover at
// least one span.
type phaseAgg struct {
	count, total, min, max atomic.Int64

	// series caches the registry series for this phase so the
	// per-span-finish hot path neither concatenates "phase:"+name nor
	// re-resolves the registry maps.
	series atomic.Pointer[phaseSeries]
}

// phaseSeries is one phase's series in the registry they were resolved
// from; a SetRegistry to another registry makes it stale.
type phaseSeries struct {
	reg  *metrics.Registry
	hist *metrics.Histogram
	cnt  *metrics.Counter
}

// NewTracer returns a tracer that retains up to DefaultSpanLimit spans.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now(), limit: DefaultSpanLimit}
	t.keep.Store(true)
	t.agg.Store(&map[string]*phaseAgg{})
	return t
}

// SetRegistry mirrors every finished span into reg: a latency observation
// on histogram "phase:<name>" and an increment of counter
// "phase_spans:<name>". This is how the server turns spans into
// Prometheus series without retaining trace buffers.
func (t *Tracer) SetRegistry(reg *metrics.Registry) { t.reg.Store(reg) }

// KeepSpans toggles span retention for trace export. With keep=false only
// the per-phase aggregates (and the registry mirror) are maintained —
// the right setting for long-running servers.
func (t *Tracer) KeepSpans(keep bool) { t.keep.Store(keep) }

// SetLimit caps the retained-span buffer (n < 1 resets to the default).
func (t *Tracer) SetLimit(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 1 {
		n = DefaultSpanLimit
	}
	t.limit = n
}

// Dropped reports spans discarded after the buffer limit was reached.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WithTracer installs tr as the tracer for the returned context's call
// tree. A nil tr returns ctx unchanged (tracing stays disabled).
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &Span{tracer: tr})
}

// TracerFrom returns the tracer installed in ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if sp, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return sp.tracer
	}
	return nil
}

// Current returns the span ctx is inside of, or nil when tracing is
// disabled or no span has been started yet (the placeholder installed by
// WithTracer is not a real span). It lets cross-cutting layers — e.g. the
// audit sampler attaching breach attributes — annotate the enclosing span
// without threading it explicitly. The returned span must only be
// annotated from the goroutine that started it, and only before End.
func Current(ctx context.Context) *Span {
	sp, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok || sp.tracer == nil || sp.id == 0 {
		return nil
	}
	return sp
}

// Start begins a span named name under the span current in ctx and
// returns a derived context carrying the new span. When ctx carries no
// tracer it returns ctx unchanged and a nil span, without allocating.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok || parent.tracer == nil {
		return ctx, nil
	}
	return startUnder(ctx, parent, name, false)
}

// StartLane is Start on a fresh display lane: the span (and its children)
// render on their own timeline row in the Chrome trace instead of
// stacking under the parent's row. Use it for spans that run concurrently
// with their siblings — per-jurisdiction workers — so overlapping work
// stays readable; the parent/child relation is preserved in the span
// records either way.
func StartLane(ctx context.Context, name string) (context.Context, *Span) {
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok || parent.tracer == nil {
		return ctx, nil
	}
	return startUnder(ctx, parent, name, true)
}

func startUnder(ctx context.Context, parent *Span, name string, newLane bool) (context.Context, *Span) {
	sp := parent.child(name, newLane)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// child begins a span under s, which carries a tracer.
func (s *Span) child(name string, newLane bool) *Span {
	tr := s.tracer
	lane := s.lane
	if newLane || s.id == 0 {
		lane = tr.nextLane.Add(1)
	}
	return &Span{
		tracer: tr,
		cap:    s.cap,
		name:   name,
		id:     tr.nextID.Add(1),
		parent: s.id,
		lane:   lane,
		start:  time.Now(),
	}
}

// StartLeaf is Start without the derived context, for a span under which
// no further span is started: it saves the context allocation on per-item
// hot paths. When ctx carries no tracer it returns nil.
func StartLeaf(ctx context.Context, name string) *Span {
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok || parent.tracer == nil {
		return nil
	}
	return parent.child(name, false)
}

// SetAttr annotates the span. No-op on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value. No-op on a nil span.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// End finishes the span, recording its duration into the tracer. No-op on
// a nil span. End must be called at most once, from the goroutine that
// started the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.finish(s, time.Since(s.start))
}

// SpanRecord is one finished span as retained by the tracer. Start is the
// offset from the tracer's epoch (its creation time).
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"` // 0 = root
	Lane   uint64        `json:"lane"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	Dur    time.Duration `json:"durNs"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

func (t *Tracer) finish(s *Span, dur time.Duration) {
	if s.cap != nil {
		s.cap.add(SpanRecord{
			ID: s.id, Parent: s.parent, Lane: s.lane, Name: s.name,
			Start: s.start.Sub(s.cap.epoch), Dur: dur, Attrs: s.attrs,
		})
	}
	a := (*t.agg.Load())[s.name]
	if a == nil {
		a = t.newAgg(s.name)
	}
	d := int64(dur)
	for m := a.min.Load(); d < m && !a.min.CompareAndSwap(m, d); m = a.min.Load() {
	}
	for m := a.max.Load(); d > m && !a.max.CompareAndSwap(m, d); m = a.max.Load() {
	}
	a.total.Add(d)
	a.count.Add(1)
	if t.keep.Load() {
		t.mu.Lock()
		if len(t.spans) < t.limit {
			t.spans = append(t.spans, SpanRecord{
				ID: s.id, Parent: s.parent, Lane: s.lane, Name: s.name,
				Start: s.start.Sub(t.epoch), Dur: dur, Attrs: append([]Attr(nil), s.attrs...),
			})
		} else {
			t.dropped++
		}
		t.mu.Unlock()
	}
	if reg := t.reg.Load(); reg != nil {
		ser := a.series.Load()
		if ser == nil || ser.reg != reg {
			ser = &phaseSeries{reg: reg, hist: reg.Histogram("phase:" + s.name), cnt: reg.Counter("phase_spans:" + s.name)}
			a.series.Store(ser)
		}
		ser.hist.Observe(dur)
		ser.cnt.Inc()
	}
}

// newAgg returns the aggregate of a name the loaded map did not have,
// adding it to a copy of the map unless another goroutine already has.
func (t *Tracer) newAgg(name string) *phaseAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.agg.Load()
	if a := old[name]; a != nil {
		return a
	}
	a := &phaseAgg{}
	a.min.Store(math.MaxInt64)
	next := make(map[string]*phaseAgg, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = a
	t.agg.Store(&next)
	return a
}

// Spans returns a copy of the retained spans ordered by start time.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Reset discards retained spans and aggregates, starting a new epoch.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = time.Now()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.agg.Store(&map[string]*phaseAgg{})
}
