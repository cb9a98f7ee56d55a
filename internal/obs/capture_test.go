package obs

import (
	"context"
	"sync"
	"testing"
)

func TestCaptureCollectsCallTree(t *testing.T) {
	tr := NewTracer()
	tr.KeepSpans(false) // server configuration: aggregates only
	ctx := WithTracer(context.Background(), tr)
	c := NewCapture("tid-1", 0)
	ctx = WithCapture(ctx, c)
	if got := CaptureFrom(ctx); got != c {
		t.Fatalf("CaptureFrom = %p, want %p", got, c)
	}

	ctx, root := Start(ctx, "http.request")
	cctx, child := Start(ctx, "csp.serve")
	child.SetAttr("cache", "miss")
	MarkCapture(cctx, "flight")
	child.End()
	root.End()

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("capture holds %d spans, want 2", len(spans))
	}
	// Finish order: child first, then root; parentage preserved.
	if spans[0].Name != "csp.serve" || spans[1].Name != "http.request" {
		t.Errorf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent = %d, want root id %d", spans[0].Parent, spans[1].ID)
	}
	if got := c.Marks(); len(got) != 1 || got[0] != "flight" {
		t.Errorf("Marks = %v, want [flight]", got)
	}
	// KeepSpans(false) still means no tracer-side retention.
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("tracer retained %d spans with keep=false", n)
	}
	// Aggregates flow regardless of capture.
	if got := len(tr.PhaseSummary()); got != 2 {
		t.Errorf("PhaseSummary phases = %d, want 2", got)
	}
}

func TestCaptureLimitAndDrops(t *testing.T) {
	tr := NewTracer()
	ctx := WithCapture(WithTracer(context.Background(), tr), nil)
	if CaptureFrom(ctx) != nil {
		t.Fatal("nil capture attached")
	}
	c := NewCapture("tid-2", 3)
	ctx = WithCapture(ctx, c)
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, "phase")
		sp.End()
	}
	if len(c.Spans()) != 3 || c.Dropped() != 2 {
		t.Errorf("spans=%d dropped=%d, want 3/2", len(c.Spans()), c.Dropped())
	}
}

func TestCaptureNilSafe(t *testing.T) {
	var c *Capture
	c.Mark("x")
	if c.TraceID() != "" || c.Spans() != nil || c.Marks() != nil || c.Dropped() != 0 || c.RemoteParent() != 0 {
		t.Error("nil capture accessors not inert")
	}
	c.SetRemoteParent(7)
	MarkCapture(context.Background(), "x") // no tracer: no-op
	if got := CaptureFrom(context.Background()); got != nil {
		t.Errorf("CaptureFrom(empty ctx) = %v", got)
	}
}

func TestCaptureMarkDedup(t *testing.T) {
	c := NewCapture("tid-3", 0)
	c.Mark("breach")
	c.Mark("breach")
	c.Mark("slow")
	c.Mark("")
	if got := c.Marks(); len(got) != 2 {
		t.Errorf("Marks = %v, want 2 distinct", got)
	}
}

func TestCaptureRemoteParent(t *testing.T) {
	c := NewCapture("tid-4", 0)
	c.SetRemoteParent(99)
	if c.RemoteParent() != 99 {
		t.Errorf("RemoteParent = %d, want 99", c.RemoteParent())
	}
}

// TestSpanLimitEvictionConcurrent hammers a small retained-span buffer
// from many producers past the limit and asserts the accounting is
// exact: retained + dropped = produced, and the per-phase aggregates
// still count every span including the dropped ones.
func TestSpanLimitEvictionConcurrent(t *testing.T) {
	const (
		producers = 8
		perProd   = 400
		limit     = 64
	)
	tr := NewTracer()
	tr.SetLimit(limit)
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				_, sp := Start(ctx, "phase.evict")
				sp.End()
			}
		}()
	}
	wg.Wait()

	total := int64(producers * perProd)
	kept := int64(len(tr.Spans()))
	if kept != limit {
		t.Errorf("retained %d spans, want exactly the limit %d", kept, limit)
	}
	if got := tr.Dropped(); got != total-kept {
		t.Errorf("Dropped = %d, want %d (total %d - kept %d)", got, total-kept, total, kept)
	}
	sum := tr.PhaseSummary()
	if len(sum) != 1 || sum[0].Count != total {
		t.Errorf("aggregate count = %+v, want %d including dropped spans", sum, total)
	}
	// Reset clears the accounting for the next epoch.
	tr.Reset()
	if tr.Dropped() != 0 || len(tr.Spans()) != 0 {
		t.Error("Reset left eviction accounting behind")
	}
}
