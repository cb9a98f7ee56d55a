package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"policyanon/internal/metrics"
)

func TestDisabledPathNoAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := Start(ctx, "bulkdp.build")
		sp.SetAttr("k", "50")
		sp.SetInt("users", 12345)
		sp.End()
		if c2 != ctx {
			t.Fatal("disabled Start must return the input context")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates: %v allocs/op", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		_, sp := StartLane(ctx, "parallel.worker")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartLane path allocates: %v allocs/op", allocs)
	}
}

func TestNilTracerAndSpanSafe(t *testing.T) {
	ctx := WithTracer(context.Background(), nil)
	if tr := TracerFrom(ctx); tr != nil {
		t.Fatalf("nil tracer installed, got %v", tr)
	}
	var sp *Span
	sp.SetAttr("a", "b") // must not panic
	sp.SetInt("n", 1)
	sp.End()
}

func TestCurrentSpan(t *testing.T) {
	if Current(context.Background()) != nil {
		t.Fatal("Current on a bare context must be nil")
	}
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	// The WithTracer placeholder is not a real span.
	if Current(ctx) != nil {
		t.Fatal("Current before any Start must be nil")
	}
	sctx, sp := Start(ctx, "outer")
	if Current(sctx) != sp {
		t.Fatal("Current did not return the started span")
	}
	ictx, inner := Start(sctx, "inner")
	if Current(ictx) != inner || Current(sctx) != sp {
		t.Fatal("Current does not track nesting")
	}
	Current(ictx).SetAttr("via", "current")
	inner.End()
	sp.End()
	var found bool
	for _, rec := range tr.Spans() {
		if rec.Name != "inner" {
			continue
		}
		for _, a := range rec.Attrs {
			if a.Key == "via" && a.Value == "current" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("attribute set through Current lost")
	}
}

func TestSpanNestingAndAttrs(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("TracerFrom did not recover the installed tracer")
	}
	ctx1, root := Start(ctx, "outer")
	root.SetInt("users", 400)
	ctx2, mid := Start(ctx1, "middle")
	_, leaf := Start(ctx2, "inner")
	leaf.End()
	mid.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["middle"].Parent != byName["outer"].ID {
		t.Errorf("middle's parent = %d, want outer's id %d", byName["middle"].Parent, byName["outer"].ID)
	}
	if byName["inner"].Parent != byName["middle"].ID {
		t.Errorf("inner's parent = %d, want middle's id %d", byName["inner"].Parent, byName["middle"].ID)
	}
	if byName["outer"].Parent != 0 {
		t.Errorf("outer's parent = %d, want 0 (root)", byName["outer"].Parent)
	}
	// All three share the root span's lane.
	if byName["inner"].Lane != byName["outer"].Lane || byName["middle"].Lane != byName["outer"].Lane {
		t.Error("nested spans should share their root's lane")
	}
	if len(byName["outer"].Attrs) != 1 || byName["outer"].Attrs[0] != (Attr{Key: "users", Value: "400"}) {
		t.Errorf("outer attrs = %v", byName["outer"].Attrs)
	}
}

func TestStartLaneSeparatesRows(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "parallel.build")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartLane(ctx, "parallel.worker")
			time.Sleep(time.Millisecond)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	lanes := map[uint64]bool{}
	for _, s := range tr.Spans() {
		if s.Name == "parallel.worker" {
			if s.Parent == 0 {
				t.Error("worker span lost its parent")
			}
			lanes[s.Lane] = true
		}
	}
	if len(lanes) != 4 {
		t.Fatalf("want 4 distinct worker lanes, got %d", len(lanes))
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "bulkdp.build")
	_, child := Start(ctx, "bulkdp.combine")
	child.SetInt("nodes", 7)
	time.Sleep(200 * time.Microsecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			TID  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 2 {
		t.Fatalf("want 2 events, got %d", len(decoded.TraceEvents))
	}
	var build, combine int = -1, -1
	for i, ev := range decoded.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %d phase = %q, want X", i, ev.Ph)
		}
		switch ev.Name {
		case "bulkdp.build":
			build = i
		case "bulkdp.combine":
			combine = i
		}
	}
	if build < 0 || combine < 0 {
		t.Fatalf("missing events: %+v", decoded.TraceEvents)
	}
	b, c := decoded.TraceEvents[build], decoded.TraceEvents[combine]
	// The child must be contained within the parent on the same row.
	if c.TS < b.TS || c.TS+c.Dur > b.TS+b.Dur+1 { // +1us slack for rounding
		t.Errorf("child [%v,%v] not inside parent [%v,%v]", c.TS, c.TS+c.Dur, b.TS, b.TS+b.Dur)
	}
	if c.TID != b.TID {
		t.Error("nested spans should share a trace row")
	}
	if c.Args["nodes"] != "7" {
		t.Errorf("child args = %v", c.Args)
	}
}

func TestPhaseSummaryAndTable(t *testing.T) {
	tr := NewTracer()
	tr.KeepSpans(false) // aggregates must survive without span retention
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, sp := Start(ctx, "csp.serve")
		time.Sleep(100 * time.Microsecond)
		sp.End()
	}
	_, sp := Start(ctx, "bulkdp.update")
	sp.End()

	if got := len(tr.Spans()); got != 0 {
		t.Fatalf("KeepSpans(false) retained %d spans", got)
	}
	stats := tr.PhaseSummary()
	if len(stats) != 2 {
		t.Fatalf("want 2 phases, got %+v", stats)
	}
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	serve := byName["csp.serve"]
	if serve.Count != 3 {
		t.Errorf("csp.serve count = %d, want 3", serve.Count)
	}
	if serve.Min > serve.Mean || serve.Mean > serve.Max || serve.Total < serve.Max {
		t.Errorf("inconsistent stats: %+v", serve)
	}
	var buf bytes.Buffer
	if err := tr.WritePhaseTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "csp.serve") || !strings.Contains(out, "bulkdp.update") {
		t.Errorf("phase table missing rows:\n%s", out)
	}
}

func TestRegistryBridge(t *testing.T) {
	tr := NewTracer()
	reg := metrics.NewRegistry()
	tr.SetRegistry(reg)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, "bulkdp.build")
		sp.End()
	}
	snap := reg.Snapshot()
	if got := snap.Counters["phase_spans:bulkdp.build"]; got != 5 {
		t.Errorf("phase_spans counter = %d, want 5", got)
	}
	h, ok := snap.Histograms["phase:bulkdp.build"]
	if !ok || h.Count != 5 {
		t.Errorf("phase histogram = %+v (ok=%v), want count 5", h, ok)
	}
}

func TestSpanLimitDrops(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(2)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := Start(ctx, "x")
		sp.End()
	}
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("retained %d spans, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if got := tr.PhaseSummary()[0].Count; got != 5 {
		t.Fatalf("aggregate count = %d, want 5 (drops must not affect aggregates)", got)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 || len(tr.PhaseSummary()) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// TestAggregatesConcurrent: spans finishing on several goroutines — under
// names the tracer has and has not met, while the registry is swapped and
// the summary read — lose no count. A finish takes no tracer-wide lock
// (the aggregates are atomics behind a copy-on-write map), so this is the
// test that holds it to what the lock used to give. Run with -race.
func TestAggregatesConcurrent(t *testing.T) {
	tr := NewTracer()
	tr.KeepSpans(false)
	first, second := metrics.NewRegistry(), metrics.NewRegistry()
	tr.SetRegistry(first)
	ctx := WithTracer(context.Background(), tr)
	names := []string{"a", "b", "c", "d"}
	const workers, perName = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perName; i++ {
				for _, name := range names {
					sp := StartLeaf(ctx, name)
					sp.SetAttr("worker", "w")
					sp.End()
				}
				if w == 0 && i == perName/2 {
					tr.SetRegistry(second)
				}
				if w == 1 {
					for _, st := range tr.PhaseSummary() {
						if st.Count < 1 || st.Min > st.Max {
							t.Errorf("inconsistent summary mid-run: %+v", st)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	sum := tr.PhaseSummary()
	if len(sum) != len(names) {
		t.Fatalf("%d phases, want %d", len(sum), len(names))
	}
	for _, st := range sum {
		if st.Count != workers*perName {
			t.Errorf("phase %s counted %d spans, want %d", st.Name, st.Count, workers*perName)
		}
		got := first.Snapshot().Counters["phase_spans:"+st.Name] + second.Snapshot().Counters["phase_spans:"+st.Name]
		if got != workers*perName {
			t.Errorf("phase %s: the two registries saw %d spans, want %d", st.Name, got, workers*perName)
		}
	}
}
