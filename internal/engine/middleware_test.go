package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"policyanon/internal/audit"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/obs"
	"policyanon/internal/workload"
)

// smallDB is a deterministic ~300-user snapshot for middleware tests.
func smallDB(t *testing.T) (*location.DB, geo.Rect) {
	t.Helper()
	const side = 1 << 10
	db := workload.Generate(workload.Config{
		MapSide: side, Intersections: 60, UsersPerIntersection: 5, SpreadSigma: 30,
	}, 7)
	return db, geo.NewRect(0, 0, side, side)
}

func TestWrapOrderAndName(t *testing.T) {
	var order []string
	mark := func(label string) engine.Middleware {
		return func(next engine.Engine) engine.Engine {
			return engine.New(next.Name(), func(ctx context.Context, db *location.DB, bounds geo.Rect, p engine.Params) (*lbs.Assignment, error) {
				order = append(order, label)
				return next.Anonymize(ctx, db, bounds, p)
			})
		}
	}
	base := engine.New("base", func(ctx context.Context, db *location.DB, bounds geo.Rect, p engine.Params) (*lbs.Assignment, error) {
		order = append(order, "engine")
		return nil, errors.New("stop")
	})
	wrapped := engine.Wrap(base, mark("outer"), mark("inner"))
	if wrapped.Name() != "base" {
		t.Errorf("wrapping changed the name to %q", wrapped.Name())
	}
	wrapped.Anonymize(context.Background(), location.New(0), geo.Rect{}, engine.Params{K: 1})
	want := []string{"outer", "inner", "engine"}
	if len(order) != len(want) {
		t.Fatalf("call order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("call order %v, want %v", order, want)
		}
	}
}

func TestWithTracingEmitsEngineSpan(t *testing.T) {
	db, bounds := smallDB(t)
	e, err := engine.Get("casper")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := engine.Wrap(e, engine.WithTracing()).Anonymize(ctx, db, bounds, engine.Params{K: 10}); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, sp := range tr.Spans() {
		if sp.Name != "engine.casper" {
			continue
		}
		found = true
		attrs := make(map[string]string)
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["users"] == "" || attrs["k"] == "" || attrs["cost"] == "" {
			t.Errorf("engine.casper span attrs %v missing users/k/cost", attrs)
		}
	}
	if !found {
		t.Fatalf("no engine.casper span recorded (spans: %v)", tr.PhaseSummary())
	}
}

func TestWithMetricsRecordsCallsAndErrors(t *testing.T) {
	db, bounds := smallDB(t)
	reg := metrics.NewRegistry()
	e, err := engine.Get("puq")
	if err != nil {
		t.Fatal(err)
	}
	w := engine.Wrap(e, engine.WithMetrics(reg))
	if _, err := w.Anonymize(context.Background(), db, bounds, engine.Params{K: 10}); err != nil {
		t.Fatal(err)
	}
	// k > |D| fails inside the engine and must count as an error.
	if _, err := w.Anonymize(context.Background(), db, bounds, engine.Params{K: db.Len() + 1}); err == nil {
		t.Fatal("oversized k accepted")
	}
	if got := reg.Counter("engine_calls:puq").Value(); got != 2 {
		t.Errorf("engine_calls:puq = %d, want 2", got)
	}
	if got := reg.Counter("engine_errors:puq").Value(); got != 1 {
		t.Errorf("engine_errors:puq = %d, want 1", got)
	}
	if got := reg.ValueHistogram("engine_cost:puq").Summary().Count; got != 1 {
		t.Errorf("engine_cost:puq observations = %d, want 1", got)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Values["engine_cost:puq"]; !ok {
		t.Error("snapshot omits the engine_cost value histogram")
	}
}

// example1Fixture is the Example 1 snapshot: a k-inside policy over it
// breaches policy-aware k=2 anonymity by construction.
func example1Fixture(t *testing.T) (*location.DB, geo.Rect) {
	t.Helper()
	db := location.New(0)
	for _, u := range []struct {
		id   string
		x, y int32
	}{{"Alice", 1, 1}, {"Bob", 1, 2}, {"Carol", 1, 5}, {"Sam", 5, 1}, {"Tom", 6, 2}} {
		if err := db.Add(u.id, geo.Point{X: u.x, Y: u.y}); err != nil {
			t.Fatal(err)
		}
	}
	return db, geo.NewRect(0, 0, 8, 8)
}

// WithAudit must observe the Example 1 breach — counter, rolling report,
// span attribute — without withholding the policy.
func TestWithAuditObservesWithoutEnforcing(t *testing.T) {
	db, bounds := example1Fixture(t)
	casper, err := engine.Get("casper")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	aud := audit.New(reg, audit.Options{})
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	w := engine.Wrap(casper, engine.WithTracing(), engine.WithAudit(aud, 1))
	pol, err := w.Anonymize(ctx, db, bounds, engine.Params{K: 2})
	if err != nil {
		t.Fatalf("WithAudit withheld the policy: %v", err)
	}
	if pol == nil || pol.Len() != db.Len() {
		t.Fatal("policy lost in the audit middleware")
	}
	if got := reg.Counter("anon_breach:casper/policy-aware").Value(); got < 1 {
		t.Fatalf("policy-aware breach not counted (counter = %d)", got)
	}
	rep := aud.Report()
	if rep.PolicyAudits != 1 || rep.Aware.Min >= 2 {
		t.Fatalf("audit report %+v does not show the Example 1 breach", rep)
	}
	// The breach attributes land on the enclosing engine span; the audit
	// cost is timed as its own engine.audit span.
	var engineAttrs map[string]string
	var auditSpan bool
	for _, sp := range tr.Spans() {
		if sp.Name == "engine.audit" {
			auditSpan = true
		}
		if sp.Name == "engine.casper" {
			engineAttrs = make(map[string]string)
			for _, a := range sp.Attrs {
				engineAttrs[a.Key] = a.Value
			}
		}
	}
	if !auditSpan {
		t.Error("no engine.audit span recorded")
	}
	if engineAttrs["audit.breach"] != "policy-aware" || engineAttrs["audit.achievedK"] != "1" {
		t.Errorf("engine span attrs %v missing breach annotation", engineAttrs)
	}
}

func TestWithCacheMemoizesBySnapshotVersion(t *testing.T) {
	db, bounds := smallDB(t)
	inner, err := engine.Get(engine.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	counted := engine.New(inner.Name(), func(ctx context.Context, d *location.DB, b geo.Rect, p engine.Params) (*lbs.Assignment, error) {
		calls++
		return inner.Anonymize(ctx, d, b, p)
	})
	cached := engine.Wrap(counted, engine.WithCache())
	ctx := context.Background()
	p := engine.Params{K: 10}
	a1, err := cached.Anonymize(ctx, db, bounds, p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cached.Anonymize(ctx, db, bounds, p)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("second identical call ran the engine (calls = %d)", calls)
	}
	if a1 != a2 {
		t.Error("cache hit returned a different assignment")
	}
	// Different parameters miss.
	if _, err := cached.Anonymize(ctx, db, bounds, engine.Params{K: 12}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("k=12 call did not run the engine (calls = %d)", calls)
	}
	// A mutation bumps the snapshot version and invalidates the memo.
	db.MoveAt(0, geo.Point{X: bounds.MaxX - 1, Y: bounds.MaxY - 1})
	if _, err := cached.Anonymize(ctx, db, bounds, p); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("post-mutation call served stale cache (calls = %d)", calls)
	}
}

// TestWithCacheCoalescesConcurrentMisses: N concurrent identical
// Anonymize calls on a cold cache run the engine once; everyone shares
// the leader's assignment. Run with -race.
func TestWithCacheCoalescesConcurrentMisses(t *testing.T) {
	db, bounds := smallDB(t)
	inner, err := engine.Get(engine.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var mu sync.Mutex
	var calls int
	blocked := engine.New(inner.Name(), func(ctx context.Context, d *location.DB, b geo.Rect, p engine.Params) (*lbs.Assignment, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-gate
		return inner.Anonymize(ctx, d, b, p)
	})
	cached := engine.Wrap(blocked, engine.WithCache())
	const n = 8
	var wg sync.WaitGroup
	results := make([]*lbs.Assignment, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cached.Anonymize(context.Background(), db, bounds, engine.Params{K: 10})
		}(i)
	}
	// Wait until the leader is inside the engine, give the others a
	// moment to pile onto its flight, then release.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		c := calls
		mu.Unlock()
		if c == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never entered the engine")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("%d concurrent identical calls ran the engine %d times, want 1", n, calls)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different assignment than the leader", i)
		}
	}
}

// TestWithCacheErrorsNotCached: a failed engine run propagates its error
// to coalesced waiters and leaves no memo entry — the next call retries.
func TestWithCacheErrorsNotCached(t *testing.T) {
	db, bounds := smallDB(t)
	wantErr := errors.New("engine exploded")
	var calls int
	failing := engine.New("failing", func(ctx context.Context, d *location.DB, b geo.Rect, p engine.Params) (*lbs.Assignment, error) {
		calls++
		if calls == 1 {
			return nil, wantErr
		}
		inner, err := engine.Get(engine.DefaultName)
		if err != nil {
			return nil, err
		}
		return inner.Anonymize(ctx, d, b, p)
	})
	cached := engine.Wrap(failing, engine.WithCache())
	if _, err := cached.Anonymize(context.Background(), db, bounds, engine.Params{K: 10}); !errors.Is(err, wantErr) {
		t.Fatalf("first call error = %v, want %v", err, wantErr)
	}
	if _, err := cached.Anonymize(context.Background(), db, bounds, engine.Params{K: 10}); err != nil {
		t.Fatalf("retry after error: %v", err)
	}
	if calls != 2 {
		t.Fatalf("engine ran %d times, want 2 (error not cached)", calls)
	}
}
