package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"policyanon/internal/lbs"
)

// batchUser returns the fixture user installed by installSnapshot at
// index i, with the exact stored location (the server rejects spoofs).
func batchUser(i int) ServiceRequestJSON {
	return ServiceRequestJSON{
		User: fmt.Sprintf("u%02d", i),
		X:    int32((i * 13) % 64), Y: int32((i * 29) % 64),
	}
}

// postBatch posts a batch and decodes the typed response items.
func postBatch(t *testing.T, base string, reqs []ServiceRequestJSON) (*http.Response, []BatchItemJSON) {
	t.Helper()
	resp, body := post(t, base+"/v1/request/batch", BatchRequestJSON{Requests: reqs})
	raw, err := json.Marshal(body["results"])
	if err != nil {
		t.Fatal(err)
	}
	var items []BatchItemJSON
	if err := json.Unmarshal(raw, &items); err != nil {
		t.Fatal(err)
	}
	return resp, items
}

// TestBatchParityWithSingles is the batch-endpoint parity oracle: one
// POST /v1/request/batch must return, per user and in submission order,
// exactly the cloak and candidate set N sequential POST /v1/request
// calls return. Run with -race: item resolution is parallel.
func TestBatchParityWithSingles(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)

	var reqs []ServiceRequestJSON
	for i := 0; i < 40; i++ {
		r := batchUser(i)
		r.Params = []lbs.Param{{Name: "cat", Value: "gas"}}
		reqs = append(reqs, r)
	}

	// Sequential singles first, recording cloak+candidates per user.
	type answer struct {
		cloak      map[string]any
		candidates []POIJSON
	}
	singles := make([]answer, len(reqs))
	for i, rq := range reqs {
		resp, body := post(t, ts.URL+"/v1/request", rq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %d: %d %v", i, resp.StatusCode, body)
		}
		raw, _ := json.Marshal(body["candidates"])
		var cands []POIJSON
		if err := json.Unmarshal(raw, &cands); err != nil {
			t.Fatal(err)
		}
		singles[i] = answer{cloak: body["cloak"].(map[string]any), candidates: cands}
	}

	resp, items := postBatch(t, ts.URL, reqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	if len(items) != len(reqs) {
		t.Fatalf("batch returned %d items for %d requests", len(items), len(reqs))
	}
	for i, it := range items {
		if it.Error != "" {
			t.Fatalf("item %d (%s): %s", i, reqs[i].User, it.Error)
		}
		if it.Cloak == nil {
			t.Fatalf("item %d: no cloak", i)
		}
		got := map[string]any{
			"minX": float64(it.Cloak.MinX), "minY": float64(it.Cloak.MinY),
			"maxX": float64(it.Cloak.MaxX), "maxY": float64(it.Cloak.MaxY),
		}
		for k, v := range singles[i].cloak {
			if got[k] != v {
				t.Fatalf("item %d (%s): cloak %s = %v, single returned %v", i, reqs[i].User, k, got[k], v)
			}
		}
		if !reflect.DeepEqual(it.Candidates, singles[i].candidates) {
			t.Fatalf("item %d (%s): candidates %+v, single returned %+v", i, reqs[i].User, it.Candidates, singles[i].candidates)
		}
	}
}

// TestBatchPerItemErrors: invalid items fail individually while valid
// neighbours still answer; the batch stays 200.
func TestBatchPerItemErrors(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)

	reqs := []ServiceRequestJSON{
		batchUser(0),
		{User: "nobody", X: 1, Y: 1}, // unknown user
		{User: "u01", X: 63, Y: 63},  // spoofed location
		batchUser(2),
	}
	resp, items := postBatch(t, ts.URL, reqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with bad items: %d, want 200 with per-item errors", resp.StatusCode)
	}
	if items[0].Error != "" || items[3].Error != "" {
		t.Fatalf("valid items failed: %q / %q", items[0].Error, items[3].Error)
	}
	if items[1].Error == "" || items[2].Error == "" {
		t.Fatalf("invalid items served: %+v / %+v", items[1], items[2])
	}
	if items[0].Cloak == nil || items[3].Cloak == nil {
		t.Fatal("valid items carry no cloak")
	}
}

// TestBatchValidation: empty batches and batches before setup are
// rejected whole.
func TestBatchValidation(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/v1/request/batch", BatchRequestJSON{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/request/batch", BatchRequestJSON{Requests: []ServiceRequestJSON{{User: "u00"}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("batch before setup: %d, want 409", resp.StatusCode)
	}
}

// TestBatchStatsAndMetrics: batches feed the serve_*/coalesce_* metric
// families and the stats document.
func TestBatchStatsAndMetrics(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)

	var reqs []ServiceRequestJSON
	for i := 0; i < 10; i++ {
		reqs = append(reqs, batchUser(i))
	}
	if resp, _ := postBatch(t, ts.URL, reqs); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	if stats["batchesServed"].(float64) != 1 {
		t.Fatalf("batchesServed = %v, want 1", stats["batchesServed"])
	}
	if stats["requestsServed"].(float64) != 10 {
		t.Fatalf("requestsServed = %v, want 10", stats["requestsServed"])
	}
	// Every provider lookup is a flight; hits+flights+coalesced = 10.
	flights := stats["coalesceFlights"].(float64)
	coalesced := stats["coalesceCoalesced"].(float64)
	hits := stats["cacheHits"].(float64)
	if flights < 1 || hits+flights+coalesced != 10 {
		t.Fatalf("hits(%v)+flights(%v)+coalesced(%v) != 10", hits, flights, coalesced)
	}
	_, metricsDoc := get(t, ts.URL+"/v1/metrics")
	counters, _ := metricsDoc["counters"].(map[string]any)
	if counters == nil {
		t.Fatalf("metrics document lacks counters: %v", metricsDoc)
	}
	if counters["serve_batches"].(float64) != 1 {
		t.Fatalf("serve_batches = %v, want 1", counters["serve_batches"])
	}
	if counters["serve_requests:batch"].(float64) != 10 {
		t.Fatalf("serve_requests:batch = %v, want 10", counters["serve_requests:batch"])
	}
	if _, ok := counters["coalesce_flights"]; !ok {
		t.Fatal("coalesce_flights family missing")
	}
}

// TestBatchBadRangeParameter: a non-finite radius is the sender's error —
// 400 on /v1/request, a per-item error in a batch — and an absurd finite
// one is simply every POI of the category.
func TestBatchBadRangeParameter(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)
	ranged := func(i int, radius string) ServiceRequestJSON {
		rq := batchUser(i)
		rq.Params = []lbs.Param{{Name: "cat", Value: "gas"}, {Name: "range", Value: radius}}
		return rq
	}
	for _, radius := range []string{"NaN", "Inf", "-Inf", "-3"} {
		resp, body := post(t, ts.URL+"/v1/request", ranged(1, radius))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body["error"]), "bad range parameter") {
			t.Fatalf("range=%s: %d %v, want 400 bad range parameter", radius, resp.StatusCode, body)
		}
	}
	resp, items := postBatch(t, ts.URL, []ServiceRequestJSON{ranged(0, "NaN"), ranged(1, "1e300"), ranged(2, "+Inf"), ranged(3, "0")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	if !strings.Contains(items[0].Error, "bad range parameter") || !strings.Contains(items[2].Error, "bad range parameter") {
		t.Fatalf("non-finite radii served: %+v / %+v", items[0], items[2])
	}
	if items[1].Error != "" || len(items[1].Candidates) != 2 {
		t.Fatalf("range=1e300 answered %+v, want both gas stations", items[1])
	}
	if items[3].Error != "" {
		t.Fatalf("range=0 failed: %q", items[3].Error)
	}
}

// TestCoalesceCountersSurviveCSPReplacement: the CSP's counters are folded
// into the registry only when somebody reads them and when a POI install
// retires the CSP, and the coalesce_* families stay monotonic across both.
func TestCoalesceCountersSurviveCSPReplacement(t *testing.T) {
	ts := newTestServer(t)
	installSnapshot(t, ts.URL, 5)
	installPOIs(t, ts.URL)
	flights := func() float64 {
		t.Helper()
		_, doc := get(t, ts.URL+"/v1/metrics")
		counters, _ := doc["counters"].(map[string]any)
		v, _ := counters["coalesce_flights"].(float64)
		return v
	}
	serve := func(cat string) {
		t.Helper()
		rq := batchUser(0)
		rq.Params = []lbs.Param{{Name: "cat", Value: cat}}
		if resp, body := post(t, ts.URL+"/v1/request", rq); resp.StatusCode != http.StatusOK {
			t.Fatalf("request: %d %v", resp.StatusCode, body)
		}
	}
	serve("gas")
	serve("rest")
	serve("gas")           // a hit: no flight
	installPOIs(t, ts.URL) // retires the CSP before anyone scraped its two flights
	serve("gas")
	if got := flights(); got != 3 {
		t.Fatalf("coalesce_flights = %v after 2 flights, a CSP replacement and 1 more, want 3", got)
	}
	serve("rest")
	if got := flights(); got != 4 {
		t.Fatalf("coalesce_flights = %v, want 4", got)
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	if stats["requestsServed"].(float64) != 5 || stats["coalesceFlights"].(float64) != 2 || stats["cacheHits"].(float64) != 0 {
		t.Fatalf("stats = %v, want 5 served and the live CSP's 2 flights, 0 hits", stats)
	}
}

func TestCounterDelta(t *testing.T) {
	for _, tc := range []struct{ last, cur, want int64 }{
		{0, 0, 0}, {3, 7, 4}, {7, 7, 0},
		{7, 2, 2}, // the source restarted: all it has counted is new
		{7, 0, 0},
	} {
		if got := counterDelta(tc.last, tc.cur); got != tc.want {
			t.Errorf("counterDelta(%d, %d) = %d, want %d", tc.last, tc.cur, got, tc.want)
		}
	}
}
