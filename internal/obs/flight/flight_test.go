package flight

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingRetainEvicts(t *testing.T) {
	r := New(4, 4)
	for i := 0; i < 10; i++ {
		r.Retain(&Trace{TraceID: fmt.Sprintf("t-%d", i)})
	}
	got := r.Traces()
	if len(got) != 4 {
		t.Fatalf("Traces() = %d entries, want 4", len(got))
	}
	// Newest first: t-9, t-8, t-7, t-6.
	for i, tr := range got {
		want := fmt.Sprintf("t-%d", 9-i)
		if tr.TraceID != want {
			t.Errorf("Traces()[%d] = %s, want %s", i, tr.TraceID, want)
		}
	}
	if st := r.Stats(); st.Retained != 10 || st.Capacity != 4 {
		t.Errorf("Stats = %+v, want Retained=10 Capacity=4", st)
	}
}

func TestEventRing(t *testing.T) {
	r := New(2, 3)
	for i := 0; i < 5; i++ {
		r.Emit(&Event{Kind: "breach", Detail: fmt.Sprintf("e%d", i)})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events() = %d, want 3", len(evs))
	}
	if evs[0].Detail != "e4" || evs[2].Detail != "e2" {
		t.Errorf("Events() newest-first order wrong: %v %v", evs[0].Detail, evs[2].Detail)
	}
}

func TestRollingThreshold(t *testing.T) {
	r := New(4, 4)
	// Before warmup and recompute, nothing is slow.
	if r.ObserveLatency(time.Hour) {
		t.Fatal("ObserveLatency slow before threshold established")
	}
	// Feed a uniform baseline well past warmup; the p99 settles at 1ms.
	for i := 0; i < 2*warmupMin; i++ {
		r.ObserveLatency(time.Millisecond)
	}
	if th := r.Stats().Threshold; th != time.Millisecond {
		t.Fatalf("Threshold = %v, want 1ms", th)
	}
	if !r.ObserveLatency(50 * time.Millisecond) {
		t.Error("50ms not flagged slow against 1ms p99")
	}
	if r.ObserveLatency(time.Millisecond / 2) {
		t.Error("0.5ms flagged slow against 1ms p99")
	}
}

func TestSetThresholdPins(t *testing.T) {
	r := New(4, 4)
	r.SetThreshold(10 * time.Millisecond)
	if r.ObserveLatency(5 * time.Millisecond) {
		t.Error("below pinned threshold flagged slow")
	}
	if !r.ObserveLatency(20 * time.Millisecond) {
		t.Error("above pinned threshold not flagged slow (pin should skip warmup)")
	}
	if st := r.Stats(); !st.Pinned || st.Threshold != 10*time.Millisecond {
		t.Errorf("Stats = %+v, want pinned 10ms", st)
	}
}

func TestLookup(t *testing.T) {
	r := New(8, 8)
	r.Retain(&Trace{TraceID: "tid-a", RID: "rid-1"})
	r.Retain(&Trace{TraceID: "tid-b", RID: "rid-2"})
	if tr := r.Lookup("", "tid-a"); tr == nil || tr.RID != "rid-1" {
		t.Errorf("Lookup by tid failed: %+v", tr)
	}
	if tr := r.Lookup("rid-2", ""); tr == nil || tr.TraceID != "tid-b" {
		t.Errorf("Lookup by rid failed: %+v", tr)
	}
	// A batch item rid resolves to its batch's trace.
	if tr := r.Lookup("rid-2-17", ""); tr == nil || tr.TraceID != "tid-b" {
		t.Errorf("Lookup by item rid failed: %+v", tr)
	}
	if tr := r.Lookup("rid-29", ""); tr != nil {
		t.Errorf("Lookup(rid-29) matched %+v, want nil", tr)
	}
	if tr := r.Lookup("nope", "nope"); tr != nil {
		t.Errorf("Lookup miss returned %+v", tr)
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	r := New(16, 16)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Traces()
				r.Events()
				r.Stats()
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				r.ObserveLatency(time.Duration(i%257+1) * time.Microsecond)
				r.Retain(&Trace{TraceID: fmt.Sprintf("g%d-%d", g, i)})
				r.Emit(&Event{Kind: "breach"})
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if st := r.Stats(); st.Retained != 8000 || st.Events != 8000 || st.Observed != 8000 {
		t.Errorf("Stats after concurrent run = %+v", st)
	}
	if got := len(r.Traces()); got != 16 {
		t.Errorf("ring holds %d traces, want 16", got)
	}
}

// TestRecordPathZeroAllocs is the bounded-overhead contract of the
// always-on recorder: ObserveLatency (every request), Retain, and Emit
// (retained requests only) allocate nothing, including the threshold
// recompute passes that fire inside the loop.
func TestRecordPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := New(32, 32)
	tr := &Trace{TraceID: "t-prealloc"}
	ev := &Event{Kind: "breach"}
	var i int
	allocs := testing.AllocsPerRun(4*windowSize, func() {
		i++
		r.ObserveLatency(time.Duration(i%1000) * time.Microsecond)
		r.Retain(tr)
		r.Emit(ev)
	})
	if allocs != 0 {
		t.Errorf("record path allocates %.1f/op, want 0", allocs)
	}
}

// TestNoLocksOnRecordPath pins the package's lock-freedom by source
// scan: no sync.Mutex/RWMutex/Cond anywhere in the non-test files, and
// no channel operations — the record path must stay wait-free so a
// wedged reader can never stall serving.
func TestNoLocksOnRecordPath(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(".", name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
					if sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex" || sel.Sel.Name == "Cond" || sel.Sel.Name == "WaitGroup" {
						t.Errorf("%s: flight recorder uses sync.%s — record path must be lock-free", name, sel.Sel.Name)
					}
				}
			}
			if _, ok := n.(*ast.ChanType); ok {
				t.Errorf("%s: flight recorder declares a channel — record path must be lock-free", name)
			}
			return true
		})
	}
}
