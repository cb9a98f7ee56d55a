package engine_test

import (
	"context"
	"errors"
	"testing"

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
