package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func installSnapshot(t *testing.T, base string, k int) {
	t.Helper()
	users := []UserJSON{}
	for i := 0; i < 40; i++ {
		users = append(users, UserJSON{
			ID: fmt.Sprintf("u%02d", i),
			X:  int32((i * 13) % 64), Y: int32((i * 29) % 64),
		})
	}
	resp, body := post(t, base+"/v1/snapshot", SnapshotRequest{K: k, MapSide: 64, Users: users})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, body)
	}
	if body["users"].(float64) != 40 {
		t.Fatalf("snapshot users = %v", body["users"])
	}
	if body["policyCost"].(float64) <= 0 {
		t.Fatalf("snapshot policyCost = %v", body["policyCost"])
	}
}

func installPOIs(t *testing.T, base string) {
	t.Helper()
	resp, body := post(t, base+"/v1/pois", map[string]any{
		"mapSide": 64,
		"pois": []POIJSON{
			{ID: "gas1", X: 10, Y: 10, Category: "gas"},
			{ID: "gas2", X: 50, Y: 50, Category: "gas"},
			{ID: "rest1", X: 30, Y: 30, Category: "rest"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pois: %d %v", resp.StatusCode, body)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	// Liveness: always 200, even before a snapshot.
	resp, body := get(t, ts.URL+"/healthz?probe=live")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("liveness: %d %v", resp.StatusCode, body)
	}
	// Readiness: 503 until the first snapshot is installed.
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("readiness before snapshot: %d %v", resp.StatusCode, body)
	}
	installSnapshot(t, ts.URL, 5)
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["ready"] != true {
		t.Fatalf("readiness after snapshot: %d %v", resp.StatusCode, body)
	}
	if body["users"].(float64) != 40 || body["k"].(float64) != 5 {
		t.Fatalf("readiness facts: %v", body)
	}
}

func TestSnapshotAndCloakLookup(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	resp, body := get(t, ts.URL+"/v1/cloak?user=u07")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cloak: %d %v", resp.StatusCode, body)
	}
	cloak := body["cloak"].(map[string]any)
	if cloak["maxX"].(float64) <= cloak["minX"].(float64) {
		t.Fatalf("degenerate cloak %v", cloak)
	}
	// Unknown user is a 404.
	resp, _ = get(t, ts.URL+"/v1/cloak?user=nobody")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown user: %d", resp.StatusCode)
	}
	// Missing parameter is a 400.
	resp, _ = get(t, ts.URL+"/v1/cloak")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user: %d", resp.StatusCode)
	}
}

func TestCloakBeforeSnapshot(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := get(t, ts.URL+"/v1/cloak?user=u01")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("expected 409, got %d", resp.StatusCode)
	}
}

func TestSnapshotValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []SnapshotRequest{
		{K: 0, MapSide: 64},
		{K: 2, MapSide: 0},
		{K: 2, MapSide: 64, Users: []UserJSON{{ID: "a", X: 1, Y: 1}, {ID: "a", X: 2, Y: 2}}},
		{K: 2, MapSide: 64, Users: []UserJSON{{ID: "a", X: 99, Y: 1}, {ID: "b", X: 2, Y: 2}}},
	}
	for i, c := range cases {
		resp, _ := post(t, ts.URL+"/v1/snapshot", c)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("case %d accepted", i)
		}
	}
	// Fewer than k users: 422.
	resp, _ := post(t, ts.URL+"/v1/snapshot", SnapshotRequest{
		K: 5, MapSide: 64, Users: []UserJSON{{ID: "a", X: 1, Y: 1}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("insufficient users: %d", resp.StatusCode)
	}
}

func TestRequestEndToEnd(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)
	resp, body := post(t, ts.URL+"/v1/request", ServiceRequestJSON{User: "u03", X: 39, Y: 23})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request: %d %v", resp.StatusCode, body)
	}
	if body["candidates"] == nil {
		t.Fatalf("no candidates: %v", body)
	}
	// Identical request from another group member hits the cache.
	_, stats := get(t, ts.URL+"/v1/stats")
	if stats["requestsServed"].(float64) != 1 {
		t.Fatalf("stats %v", stats)
	}
}

func TestRequestBeforeSetup(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/v1/request", ServiceRequestJSON{User: "u01"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("expected 409, got %d", resp.StatusCode)
	}
	installSnapshot(t, ts.URL, 5)
	// POIs still missing.
	resp, _ = post(t, ts.URL+"/v1/request", ServiceRequestJSON{User: "u01"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("expected 409 without POIs, got %d", resp.StatusCode)
	}
}

func TestRequestSpoofedLocationRejected(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)
	resp, _ := post(t, ts.URL+"/v1/request", ServiceRequestJSON{User: "u03", X: 1, Y: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spoofed location: %d", resp.StatusCode)
	}
}

func TestPOIValidation(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/v1/pois", map[string]any{"mapSide": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mapSide 0: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/pois", map[string]any{
		"mapSide": 16,
		"pois":    []POIJSON{{ID: "x", X: 99, Y: 99}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-bounds POI: %d", resp.StatusCode)
	}
}

func TestMovesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	// Move two users; the policy must be maintained incrementally.
	resp, body := post(t, ts.URL+"/v1/moves", MovesRequest{Moves: []UserJSON{
		{ID: "u03", X: 10, Y: 10},
		{ID: "u07", X: 60, Y: 60},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("moves: %d %v", resp.StatusCode, body)
	}
	if body["policyCost"].(float64) <= 0 {
		t.Fatalf("moves response %v", body)
	}
	// The cloak lookup reflects the new position.
	resp, body = get(t, ts.URL+"/v1/cloak?user=u03")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cloak after move: %d", resp.StatusCode)
	}
	cloak := body["cloak"].(map[string]any)
	if cloak["minX"].(float64) > 10 || cloak["maxX"].(float64) < 10 {
		t.Fatalf("cloak %v does not cover the new location", cloak)
	}
	// Unknown user and missing snapshot are rejected.
	resp, _ = post(t, ts.URL+"/v1/moves", MovesRequest{Moves: []UserJSON{{ID: "ghost", X: 1, Y: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ghost move: %d", resp.StatusCode)
	}
	fresh := newTestServer(t)
	resp, _ = post(t, fresh.URL+"/v1/moves", MovesRequest{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("moves without snapshot: %d", resp.StatusCode)
	}
	// Out-of-bounds move rejected.
	resp, _ = post(t, ts.URL+"/v1/moves", MovesRequest{Moves: []UserJSON{{ID: "u01", X: 999, Y: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-bounds move: %d", resp.StatusCode)
	}
	// Stats reflect the maintenance work.
	_, stats := get(t, ts.URL+"/v1/stats")
	if stats["movesApplied"].(float64) < 2 {
		t.Fatalf("stats %v", stats)
	}
}

func TestCheckpointSaveRestore(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	installSnapshot(t, ts.URL, 5)
	var blob bytes.Buffer
	if err := srv.CheckpointTo(&blob); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Restore into a fresh server.
	restored := New()
	if err := restored.RestoreFrom(bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	fresh := httptest.NewServer(restored.Handler())
	t.Cleanup(fresh.Close)
	// The restored server answers cloak lookups identically.
	_, a := get(t, ts.URL+"/v1/cloak?user=u07")
	_, b := get(t, fresh.URL+"/v1/cloak?user=u07")
	ac, bc := a["cloak"].(map[string]any), b["cloak"].(map[string]any)
	for _, f := range []string{"minX", "minY", "maxX", "maxY"} {
		if ac[f] != bc[f] {
			t.Fatalf("restored cloak differs on %s: %v vs %v", f, ac, bc)
		}
	}
	// Moves work after restore (matrix rebuilt lazily).
	resp, body := post(t, fresh.URL+"/v1/moves", MovesRequest{Moves: []UserJSON{{ID: "u01", X: 5, Y: 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("moves after restore: %d %v", resp.StatusCode, body)
	}
	// Corrupt restore rejected.
	corrupt := bytes.Clone(blob.Bytes())
	corrupt[len(corrupt)/2] ^= 0xFF
	if err := New().RestoreFrom(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	// An empty server has nothing to checkpoint.
	var empty bytes.Buffer
	if err := New().CheckpointTo(&empty); err == nil || empty.Len() != 0 {
		t.Fatalf("empty checkpoint: err %v, %d bytes written", err, empty.Len())
	}
}

// TestCheckpointRoutesRemoved pins that no HTTP route hands out or takes
// in a checkpoint: one would return every user's exact location to any
// client of the serving listener.
func TestCheckpointRoutesRemoved(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	resp, err := http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/checkpoint: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/restore", "application/octet-stream", strings.NewReader("PANONCK1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/restore: %d, want 404", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	get(t, ts.URL+"/healthz")
	resp, body := get(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	counters := body["counters"].(map[string]any)
	if counters["requests:POST /v1/snapshot"].(float64) < 1 {
		t.Fatalf("snapshot requests not counted: %v", counters)
	}
	if counters["requests:GET /healthz"].(float64) < 1 {
		t.Fatalf("healthz requests not counted: %v", counters)
	}
	hists := body["histograms"].(map[string]any)
	if _, ok := hists["latency:POST /v1/snapshot"]; !ok {
		t.Fatalf("snapshot latency not recorded: %v", hists)
	}
}

// TestServerPrometheusExposition locks the /v1/metrics?format=prometheus
// contract: valid text exposition (v0.0.4) carrying the per-route request
// counters and latency histograms plus the per-phase anonymization
// timings recorded by the server's tracer.
func TestServerPrometheusExposition(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)
	resp, body := post(t, ts.URL+"/v1/request", ServiceRequestJSON{User: "u03", X: 39, Y: 23})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request: %d %v", resp.StatusCode, body)
	}

	promResp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	if promResp.StatusCode != http.StatusOK {
		t.Fatalf("prometheus metrics: %d", promResp.StatusCode)
	}
	if ct := promResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(promResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every non-comment line must match the exposition grammar.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Request accounting, latency histograms, and span-derived phase
	// timings must all be present.
	for _, want := range []string{
		`policyanon_requests_total{name="POST /v1/snapshot"} `,
		`policyanon_requests_total{name="POST /v1/request"} `,
		`policyanon_latency_seconds_count{name="POST /v1/snapshot"} `,
		`policyanon_latency_seconds_bucket{name="POST /v1/snapshot",le="+Inf"} `,
		`policyanon_phase_seconds_count{name="bulkdp.build"} `,
		`policyanon_phase_seconds_count{name="csp.serve"} `,
		`policyanon_phase_spans_total{name="bulkdp.build"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Unknown formats are rejected.
	badResp, err := http.Get(ts.URL + "/v1/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=xml: %d, want 400", badResp.StatusCode)
	}
}
