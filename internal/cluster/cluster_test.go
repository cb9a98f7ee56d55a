package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"policyanon/internal/attacker"
	"policyanon/internal/audit"
	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/location"
	"policyanon/internal/server"
	"policyanon/internal/workload"
)

// pool spins up n anonymization servers and returns their base URLs.
func pool(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(server.New().Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

func testSnapshot(t *testing.T, n int) (*location.DB, geo.Rect) {
	t.Helper()
	cfg := workload.Config{MapSide: 1 << 12, Intersections: n / 5, UsersPerIntersection: 5, SpreadSigma: 60}
	return workload.Generate(cfg, 11), workload.MapBounds(cfg.MapSide)
}

func TestClusterAnonymizeMatchesLocal(t *testing.T) {
	db, bounds := testSnapshot(t, 3000)
	const k = 20
	coord, err := New(pool(t, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := coord.Anonymize(context.Background(), db, bounds, k)
	if err != nil {
		t.Fatal(err)
	}
	// The distributed master policy is policy-aware k-anonymous and
	// costs exactly what the in-process parallel engine computes.
	if !attacker.IsKAnonymous(pol, k, attacker.PolicyAware) {
		t.Fatal("cluster master policy breached")
	}
	local, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := local.OptimalCost()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Cost() < opt {
		t.Fatalf("cluster cost %d below single-server optimum %d", pol.Cost(), opt)
	}
	if float64(pol.Cost()) > 1.05*float64(opt) {
		t.Fatalf("cluster cost %d diverges over 5%% from optimum %d", pol.Cost(), opt)
	}
}

func TestClusterSingleWorker(t *testing.T) {
	db, bounds := testSnapshot(t, 800)
	const k = 10
	coord, err := New(pool(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := coord.Anonymize(context.Background(), db, bounds, k)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.OptimalCost()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Cost() != want {
		t.Fatalf("single-worker cluster cost %d != local optimum %d", pol.Cost(), want)
	}
}

func TestClusterHealthAndFailover(t *testing.T) {
	db, bounds := testSnapshot(t, 1500)
	urls := pool(t, 3)
	// Kill one worker by pointing at a closed server.
	dead := httptest.NewServer(server.New().Handler())
	deadURL := dead.URL
	dead.Close()
	coord, err := New(append(urls, deadURL), nil)
	if err != nil {
		t.Fatal(err)
	}
	down := coord.Healthy(context.Background())
	if len(down) != 1 || down[0] != deadURL {
		t.Fatalf("Healthy reported %v", down)
	}
	pol, err := coord.AnonymizeWithFailover(context.Background(), db, bounds, 15)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("expected ErrDegraded, got %v", err)
	}
	// The degradation report names the worker that was dropped.
	if !strings.Contains(err.Error(), deadURL) {
		t.Fatalf("ErrDegraded does not name down worker %s: %v", deadURL, err)
	}
	if pol == nil || !attacker.IsKAnonymous(pol, 15, attacker.PolicyAware) {
		t.Fatal("failover policy missing or breached")
	}
	snap := coord.Metrics().Snapshot()
	if got := snap.Counters["cluster_down:"+deadURL]; got != 1 {
		t.Errorf("cluster_down for dead worker = %d, want 1", got)
	}
	if got := snap.Counters["cluster_failovers"]; got != 1 {
		t.Errorf("cluster_failovers = %d, want 1", got)
	}
	// Plain Anonymize against the dead worker fails.
	if _, err := coord.Anonymize(context.Background(), db, bounds, 15); err == nil {
		t.Fatal("dead worker not reported")
	}
}

// TestClusterShardMetricsRecorded: a successful Anonymize leaves one
// cluster_shard wall-time histogram and shard counter per worker in the
// coordinator's registry, with no retries recorded against healthy
// workers.
func TestClusterShardMetricsRecorded(t *testing.T) {
	db, bounds := testSnapshot(t, 1500)
	urls := pool(t, 3)
	coord, err := New(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Anonymize(context.Background(), db, bounds, 15); err != nil {
		t.Fatal(err)
	}
	snap := coord.Metrics().Snapshot()
	for _, u := range urls {
		h, ok := snap.Histograms["cluster_shard:"+u]
		if !ok || h.Count < 1 {
			t.Errorf("no shard wall-time histogram for %s: %+v", u, snap.Histograms)
		}
		if h.Mean <= 0 {
			t.Errorf("shard wall time for %s not positive: %+v", u, h)
		}
		if got := snap.Counters["cluster_shards:"+u]; got < 1 {
			t.Errorf("cluster_shards counter for %s = %d", u, got)
		}
		if got := snap.Counters["cluster_retries:"+u]; got != 0 {
			t.Errorf("healthy worker %s shows %d retries", u, got)
		}
	}
}

// TestClusterRetriesTransientError: a worker whose first snapshot POST
// dies at the transport level is retried once, the retry is counted, and
// the job still succeeds.
func TestClusterRetriesTransientError(t *testing.T) {
	real := server.New().Handler()
	var failed bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/snapshot" && !failed {
			failed = true
			panic(http.ErrAbortHandler) // drop the connection mid-response
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	coord, err := New([]string{flaky.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, bounds := testSnapshot(t, 500)
	pol, err := coord.Anonymize(context.Background(), db, bounds, 10)
	if err != nil {
		t.Fatalf("transient failure not retried: %v", err)
	}
	if !attacker.IsKAnonymous(pol, 10, attacker.PolicyAware) {
		t.Fatal("policy breached after retry")
	}
	if got := coord.Metrics().Snapshot().Counters["cluster_retries:"+flaky.URL]; got != 1 {
		t.Errorf("cluster_retries = %d, want 1", got)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("empty pool accepted")
	}
	db, bounds := testSnapshot(t, 300)
	coord, err := New(pool(t, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Anonymize(context.Background(), db, bounds, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if coord.NumWorkers() != 2 {
		t.Fatal("NumWorkers wrong")
	}
}

func TestClusterAllWorkersDown(t *testing.T) {
	dead := httptest.NewServer(server.New().Handler())
	deadURL := dead.URL
	dead.Close()
	coord, err := New([]string{deadURL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, bounds := testSnapshot(t, 300)
	if _, err := coord.AnonymizeWithFailover(context.Background(), db, bounds, 5); err == nil {
		t.Fatal("all-down pool succeeded")
	}
}

// A worker that returns a checkpoint for the wrong users (e.g. a stale or
// malicious state) must be rejected during master-policy assembly.
func TestClusterRejectsWrongWorkerState(t *testing.T) {
	// The lying worker accepts any snapshot but always serves a
	// checkpoint computed for an unrelated population.
	lying := server.New()
	bogusUsers := []server.UserJSON{}
	for i := 0; i < 10; i++ {
		bogusUsers = append(bogusUsers, server.UserJSON{ID: "bogus" + string(rune('a'+i)), X: int32(i), Y: int32(i)})
	}
	ts := httptest.NewServer(wrongStateHandler(t, lying, bogusUsers))
	t.Cleanup(ts.Close)
	coord, err := New([]string{ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, bounds := testSnapshot(t, 300)
	if _, err := coord.Anonymize(context.Background(), db, bounds, 5); err == nil {
		t.Fatal("wrong worker state accepted")
	}
}

// wrongStateHandler proxies to a real server but pre-installs a bogus
// snapshot and ignores the coordinator's snapshot payload.
func wrongStateHandler(t *testing.T, srv *server.Server, bogus []server.UserJSON) http.Handler {
	t.Helper()
	real := srv.Handler()
	installed := false
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/snapshot" {
			if !installed {
				body, _ := json.Marshal(server.SnapshotRequest{K: 2, MapSide: 64, Users: bogus})
				req := httptest.NewRequest(http.MethodPost, "/v1/snapshot", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				real.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("bogus install failed: %d", rec.Code)
				}
				installed = true
			}
			// Pretend the coordinator's snapshot was accepted.
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"users":0}`))
			return
		}
		real.ServeHTTP(w, r)
	})
}

// TestClusterForwardsRequestID verifies the coordinator propagates its
// context's request ID to shard RPCs, so one ID correlates the whole
// distributed anonymization.
func TestClusterForwardsRequestID(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	backend := httptest.NewServer(server.New().Handler())
	t.Cleanup(backend.Close)
	recorder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Header.Get("X-Request-ID")]++
		mu.Unlock()
		r.URL.Scheme = "http"
		r.URL.Host = strings.TrimPrefix(backend.URL, "http://")
		proxyReq, err := http.NewRequest(r.Method, r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		proxyReq.Header = r.Header
		resp, err := http.DefaultClient.Do(proxyReq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(recorder.Close)

	db, bounds := testSnapshot(t, 400)
	coord, err := New([]string{recorder.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := audit.WithRequestID(context.Background(), "fleet-rid-3")
	if _, err := coord.Anonymize(ctx, db, bounds, 10); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["fleet-rid-3"] < 2 {
		t.Fatalf("request ID forwarded on %d shard RPCs, want >= 2 (snapshot, checkpoint); seen: %v",
			seen["fleet-rid-3"], seen)
	}
	if seen[""] > 0 {
		t.Fatalf("%d shard RPCs carried no request ID", seen[""])
	}
}
