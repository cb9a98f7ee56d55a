package audit_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"sync"
	"testing"

	"policyanon/internal/attacker"
	"policyanon/internal/audit"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
)

// example1Policy rebuilds the paper's Example 1 shape: Carol's cloak
// covers three users (safe against policy-unaware attackers at k=2) but
// her cloaking group is a singleton, so a policy-aware attacker narrows
// the sender to Carol alone.
func example1Policy(t *testing.T) *lbs.Assignment {
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
	cloaks := []geo.Rect{
		geo.NewRect(0, 0, 4, 4), // Alice
		geo.NewRect(0, 0, 4, 4), // Bob
		geo.NewRect(0, 0, 4, 8), // Carol: covers Alice+Bob+Carol, group of one
		geo.NewRect(4, 0, 8, 4), // Sam
		geo.NewRect(4, 0, 8, 4), // Tom
	}
	a, err := lbs.NewAssignment(db, cloaks)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// safePolicy groups the same snapshot so both attacker classes see at
// least k=2 candidates everywhere.
func safePolicy(t *testing.T) *lbs.Assignment {
	t.Helper()
	a := example1Policy(t)
	db := a.DB()
	cloaks := []geo.Rect{
		geo.NewRect(0, 0, 4, 4), // Alice
		geo.NewRect(0, 0, 4, 4), // Bob
		geo.NewRect(0, 0, 8, 8), // Carol
		geo.NewRect(0, 0, 8, 8), // Sam
		geo.NewRect(0, 0, 8, 8), // Tom
	}
	safe, err := lbs.NewAssignment(db, cloaks)
	if err != nil {
		t.Fatal(err)
	}
	return safe
}

func TestSamplerRates(t *testing.T) {
	never := audit.NewSampler(0)
	for i := 0; i < 100; i++ {
		if never.Sample() {
			t.Fatal("rate-0 sampler fired")
		}
	}
	always := audit.NewSampler(1)
	for i := 0; i < 100; i++ {
		if !always.Sample() {
			t.Fatal("rate-1 sampler skipped")
		}
	}
	quarter := audit.NewSampler(0.25)
	if !quarter.Sample() {
		t.Fatal("first call must always be sampled")
	}
	hits := 1
	for i := 1; i < 400; i++ {
		if quarter.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("rate-0.25 sampler fired %d/400 times, want 100", hits)
	}
}

func TestObservePolicyMatchesAttackerGroundTruth(t *testing.T) {
	pol := example1Policy(t)
	reg := metrics.NewRegistry()
	aud := audit.New(reg, audit.Options{})
	s := aud.ObservePolicy(context.Background(), "ex1", pol, 2)

	_, wantAware := attacker.Audit(pol, 2, attacker.PolicyAware)
	_, wantUnaware := attacker.Audit(pol, 2, attacker.PolicyUnaware)
	if s.MinKAware != wantAware || s.MinKUnaware != wantUnaware {
		t.Fatalf("ObservePolicy min-k (%d, %d) != attacker.Audit ground truth (%d, %d)",
			s.MinKAware, s.MinKUnaware, wantAware, wantUnaware)
	}
	if s.MinKAware != 1 || s.MinKUnaware != 2 {
		t.Fatalf("Example 1 shape lost: minAware=%d minUnaware=%d", s.MinKAware, s.MinKUnaware)
	}
	if s.BreachesAware != 1 || s.BreachesUnaware != 0 {
		t.Fatalf("breaches (%d aware, %d unaware), want (1, 0)", s.BreachesAware, s.BreachesUnaware)
	}

	if got := reg.Counter("anon_breach:ex1/policy-aware").Value(); got != 1 {
		t.Errorf("anon_breach policy-aware counter = %d, want 1", got)
	}
	if got := reg.Counter("anon_breach:ex1/policy-unaware").Value(); got != 0 {
		t.Errorf("anon_breach policy-unaware counter = %d, want 0", got)
	}
	if got := reg.Counter("audit_sampled:ex1/policy").Value(); got != 1 {
		t.Errorf("audit_sampled policy counter = %d, want 1", got)
	}
	sum := reg.ValueHistogram("anon_achieved_k:ex1/policy-aware").Summary()
	if sum.Count != 1 {
		t.Errorf("anon_achieved_k observations = %d, want 1", sum.Count)
	}

	rep := aud.Report()
	if rep.Aware.Min != wantAware || rep.Unaware.Min != wantUnaware {
		t.Errorf("report min (%d, %d) != ground truth (%d, %d)",
			rep.Aware.Min, rep.Unaware.Min, wantAware, wantUnaware)
	}
	if rep.Aware.Breaches != 1 || rep.Unaware.Breaches != 0 {
		t.Errorf("report breaches (%d, %d), want (1, 0)", rep.Aware.Breaches, rep.Unaware.Breaches)
	}
	if len(rep.Engines) != 1 || rep.Engines[0] != "ex1" {
		t.Errorf("report engines %v, want [ex1]", rep.Engines)
	}
}

func TestBreachLogCarriesRequestIDAndExpectation(t *testing.T) {
	pol := example1Policy(t)
	var buf bytes.Buffer
	reg := metrics.NewRegistry()
	aud := audit.New(reg, audit.Options{
		Logger: audit.NewJSONLogger(&buf, slog.LevelWarn),
		// The engine under test registers PolicyAware=false, so its
		// policy-aware breach is expected by Proposition 3.
		ExpectPolicyAware: func(string) bool { return false },
	})
	ctx := audit.WithRequestID(context.Background(), "rid-test-42")
	aud.ObservePolicy(ctx, "kinside", pol, 2)

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("breach log is not one JSON object: %v (log: %q)", err, buf.String())
	}
	if rec["msg"] != "anonymity breach" {
		t.Errorf("log msg %q", rec["msg"])
	}
	if rec["rid"] != "rid-test-42" {
		t.Errorf("log rid %q, want rid-test-42", rec["rid"])
	}
	if rec["awareness"] != "policy-aware" {
		t.Errorf("log awareness %q", rec["awareness"])
	}
	if rec["achievedK"].(float64) != 1 || rec["wantK"].(float64) != 2 {
		t.Errorf("log achievedK/wantK = %v/%v, want 1/2", rec["achievedK"], rec["wantK"])
	}
	if rec["expected"] != true {
		t.Errorf("breach of a declared k-inside engine must log expected=true, got %v", rec["expected"])
	}

	// The same breach from an engine claiming policy-awareness is an
	// incident: expected=false.
	buf.Reset()
	aud2 := audit.New(metrics.NewRegistry(), audit.Options{
		Logger:            audit.NewJSONLogger(&buf, slog.LevelWarn),
		ExpectPolicyAware: func(string) bool { return true },
	})
	aud2.ObservePolicy(ctx, "claimsaware", pol, 2)
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["expected"] != false {
		t.Errorf("breach of a policy-aware engine must log expected=false, got %v", rec["expected"])
	}
}

func TestObserveRequestPerCloak(t *testing.T) {
	pol := example1Policy(t)
	reg := metrics.NewRegistry()
	aud := audit.New(reg, audit.Options{})
	ctx := context.Background()

	carol, err := pol.CloakOf("Carol")
	if err != nil {
		t.Fatal(err)
	}
	s := aud.ObserveRequest(ctx, "ex1", pol, carol, 2)
	if s.KAware != 1 || s.KUnaware != 3 {
		t.Fatalf("Carol's cloak audited as (%d aware, %d unaware), want (1, 3)", s.KAware, s.KUnaware)
	}
	if got := reg.Counter("anon_breach:ex1/policy-aware").Value(); got != 1 {
		t.Errorf("request breach counter = %d, want 1", got)
	}

	alice, err := pol.CloakOf("Alice")
	if err != nil {
		t.Fatal(err)
	}
	s = aud.ObserveRequest(ctx, "ex1", pol, alice, 2)
	if s.KAware != 2 || s.KUnaware != 2 {
		t.Fatalf("Alice's cloak audited as (%d, %d), want (2, 2)", s.KAware, s.KUnaware)
	}
	if got := reg.Counter("anon_breach:ex1/policy-aware").Value(); got != 1 {
		t.Errorf("safe cloak incremented the breach counter: %d", got)
	}
}

// A snapshot the grid cannot index (a coordinate at the int32 limit) is
// still audited correctly — by scans — and every such audit is counted.
func TestIndexFallbackIsCounted(t *testing.T) {
	db, err := location.FromRecords([]location.Record{
		{UserID: "a", Loc: geo.Point{X: 9, Y: 1}},
		{UserID: "b", Loc: geo.Point{X: math.MaxInt32, Y: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cloak := geo.Rect{MinX: 9, MinY: 0, MaxX: math.MaxInt32, MaxY: 8}
	pol, err := lbs.NewAssignment(db, []geo.Rect{cloak, cloak})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	aud := audit.New(reg, audit.Options{})
	if reg.Counter("audit_index_fallback").Value() != 0 {
		t.Fatal("fallback counted before any audit")
	}
	if s := aud.ObservePolicy(context.Background(), "edge", pol, 2); s.MinKAware != 2 || s.MinKUnaware != 2 {
		t.Fatalf("policy audited as (%d aware, %d unaware), want (2, 2)", s.MinKAware, s.MinKUnaware)
	}
	if s := aud.ObserveRequest(context.Background(), "edge", pol, cloak, 2); s.KAware != 2 || s.KUnaware != 2 {
		t.Fatalf("request audited as (%d aware, %d unaware), want (2, 2)", s.KAware, s.KUnaware)
	}
	if got := reg.Counter("audit_index_fallback").Value(); got != 2 {
		t.Fatalf("audit_index_fallback = %d after two audits without a grid, want 2", got)
	}
}

func TestMaybeObserveRequestSamples(t *testing.T) {
	pol := safePolicy(t)
	aud := audit.New(metrics.NewRegistry(), audit.Options{Rate: 0.5})
	ctx := context.Background()
	cloak := pol.CloakAt(0)
	audited := 0
	for i := 0; i < 10; i++ {
		if _, ok := aud.MaybeObserveRequest(ctx, "e", pol, cloak, 2); ok {
			audited++
		}
	}
	if audited != 5 {
		t.Fatalf("rate-0.5 audited %d/10 requests, want 5", audited)
	}
	rep := aud.Report()
	if rep.RequestAudits != 5 || rep.Skipped != 5 {
		t.Fatalf("report counts audits=%d skipped=%d, want 5/5", rep.RequestAudits, rep.Skipped)
	}
	// Rate 0 disables sampling entirely.
	aud.SetRate(0)
	if _, ok := aud.MaybeObserveRequest(ctx, "e", pol, cloak, 2); ok {
		t.Fatal("rate-0 auditor sampled a request")
	}
}

func TestReportWindowAndPercentiles(t *testing.T) {
	pol := example1Policy(t)
	aud := audit.New(metrics.NewRegistry(), audit.Options{Window: 8})
	ctx := context.Background()
	// Achieved-k (aware) per cloak: Carol 1, Alice 2, Sam 2.
	for _, user := range []string{"Carol", "Alice", "Sam", "Alice", "Sam"} {
		cloak, err := pol.CloakOf(user)
		if err != nil {
			t.Fatal(err)
		}
		aud.ObserveRequest(ctx, "ex1", pol, cloak, 2)
	}
	rep := aud.Report()
	if rep.WindowCap != 8 || rep.WindowSamples != 5 {
		t.Fatalf("window cap/samples = %d/%d, want 8/5", rep.WindowCap, rep.WindowSamples)
	}
	// Sorted aware samples: [1 2 2 2 2] — min 1, p50 2, p95 2, max 2.
	if rep.Aware.Min != 1 || rep.Aware.P50 != 2 || rep.Aware.P95 != 2 || rep.Aware.Max != 2 {
		t.Fatalf("aware stats %+v, want min 1 p50 2 p95 2 max 2", rep.Aware)
	}

	// Overflow evicts the oldest entries: 8 more safe observations push
	// Carol's 1 out of the window, but her breach total must survive.
	for i := 0; i < 8; i++ {
		cloak, _ := pol.CloakOf("Alice")
		aud.ObserveRequest(ctx, "ex1", pol, cloak, 2)
	}
	rep = aud.Report()
	if rep.WindowSamples != 8 {
		t.Fatalf("window samples after overflow = %d, want 8", rep.WindowSamples)
	}
	if rep.Aware.Min != 2 {
		t.Fatalf("evicted sample still in window: min = %d", rep.Aware.Min)
	}
	if rep.Aware.Breaches != 1 {
		t.Fatalf("breach total aged out: %d, want 1", rep.Aware.Breaches)
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := audit.MintRequestID(), audit.MintRequestID()
	if a == "" || a == b {
		t.Fatalf("minted IDs not unique: %q %q", a, b)
	}
	ctx := audit.WithRequestID(context.Background(), a)
	if got := audit.RequestID(ctx); got != a {
		t.Fatalf("RequestID = %q, want %q", got, a)
	}
	if audit.RequestID(context.Background()) != "" {
		t.Fatal("empty context carries a request ID")
	}
	if audit.WithRequestID(ctx, "") != ctx {
		t.Fatal("empty rid must leave the context unchanged")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "Error": slog.LevelError,
	} {
		got, err := audit.ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := audit.ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

// TestConcurrentAuditor exercises every auditor entry point from many
// goroutines at once; run under -race it proves the observatory is safe
// on concurrent request paths.
func TestConcurrentAuditor(t *testing.T) {
	pol := example1Policy(t)
	var buf bytes.Buffer
	var bufMu sync.Mutex
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		bufMu.Lock()
		defer bufMu.Unlock()
		return buf.Write(p)
	})
	aud := audit.New(metrics.NewRegistry(), audit.Options{
		Rate:   0.5,
		Window: 64,
		Logger: audit.NewJSONLogger(lockedWriter, slog.LevelWarn),
	})
	ctx := audit.WithRequestID(context.Background(), audit.MintRequestID())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cloak := pol.CloakAt(g % pol.Len())
			for i := 0; i < 50; i++ {
				aud.MaybeObserveRequest(ctx, "ex1", pol, cloak, 2)
				if i%10 == 0 {
					aud.ObservePolicy(ctx, "ex1", pol, 2)
					aud.Report()
				}
			}
		}(g)
	}
	wg.Wait()
	rep := aud.Report()
	if rep.RequestAudits+rep.Skipped != 400 {
		t.Fatalf("audits %d + skipped %d != 400 requests", rep.RequestAudits, rep.Skipped)
	}
	if rep.PolicyAudits != 40 {
		t.Fatalf("policy audits = %d, want 40", rep.PolicyAudits)
	}
	if rep.Aware.Min != 1 {
		t.Fatalf("concurrent report lost the Example 1 floor: min = %d", rep.Aware.Min)
	}
}

// writerFunc adapts a function to io.Writer for the locked test logger.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
