package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"policyanon/internal/audit"
	"policyanon/internal/ledger"
	"policyanon/internal/location"
	"policyanon/internal/workload"
)

// benchRequest drives POST /v1/request through the handler directly
// (no network round trip), isolating the server-side cost of one layer
// that configure switches. The TracingOff/On pair's ns/op delta is the
// per-request price of capture + root span + tail decision (the
// repository benchmark reports the same pair from outside as
// obs.request_tracing_pct); BenchmarkRequestAudit does the same for the
// privacy observatory and its ledger.
func benchRequest(b *testing.B, configure func(*Server)) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	installBenchSnapshot(b, ts.URL)
	configure(srv)
	h := srv.Handler()
	x, y := seedLoc(7)
	body, _ := json.Marshal(ServiceRequestJSON{User: "u7", X: x, Y: y})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/request", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

func installBenchSnapshot(b *testing.B, base string) {
	users := make([]UserJSON, 40)
	for i := range users {
		x, y := seedLoc(i)
		users[i] = UserJSON{ID: "u" + itoa(i), X: x, Y: y}
	}
	buf, _ := json.Marshal(SnapshotRequest{K: 5, MapSide: 64, Users: users})
	resp, err := http.Post(base+"/v1/snapshot", "application/json", bytes.NewReader(buf))
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("snapshot: %v %v", err, resp)
	}
	resp.Body.Close()
	buf, _ = json.Marshal(map[string]any{"mapSide": 64, "pois": []POIJSON{{ID: "g", X: 10, Y: 10, Category: "gas"}}})
	resp, err = http.Post(base+"/v1/pois", "application/json", bytes.NewReader(buf))
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("pois: %v %v", err, resp)
	}
	resp.Body.Close()
}

func BenchmarkRequestTracingOff(b *testing.B) {
	benchRequest(b, func(s *Server) { s.SetRequestTracing(false) })
}

func BenchmarkRequestTracingOn(b *testing.B) {
	benchRequest(b, func(s *Server) { s.SetRequestTracing(true) })
}

// BenchmarkRequestAudit prices the request-path audit: sampling off, at
// the default rate, and at the default rate with every audited event also
// appended to a tamper-evident ledger anchored to a real file (sealing and
// its fsync are asynchronous; the request pays one hash + append).
func BenchmarkRequestAudit(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchRequest(b, func(s *Server) { s.SetAuditRate(0) })
	})
	b.Run("sampled", func(b *testing.B) {
		benchRequest(b, func(s *Server) { s.SetAuditRate(audit.DefaultRate) })
	})
	b.Run("ledgered", func(b *testing.B) {
		benchRequest(b, func(s *Server) {
			anchor, err := ledger.OpenFileAnchor(filepath.Join(b.TempDir(), "audit.ledger"), s.Metrics(), nil)
			if err != nil {
				b.Fatal(err)
			}
			led, err := ledger.New(anchor, ledger.Options{Registry: s.Metrics()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				if err := led.Close(context.Background()); err != nil {
					b.Error(err)
				}
				if err := anchor.Close(); err != nil {
					b.Error(err)
				}
			})
			s.SetAuditRate(audit.DefaultRate)
			s.EnableLedger(led)
		})
	})
}

// batchFixture is a server at a scaled-down copy of the repository
// benchmark's serving shape: 4000 users drawn the way benchmark/gen.go
// draws them, k=50, and a uniform catalogue in four categories sparse
// enough that a cloak's nearest-neighbour answer is a dozen or so
// candidates (~750 bytes on the wire) — installBenchSnapshot's one POI
// never shows what an answer costs to write.
type batchFixture struct {
	h     http.Handler
	users []location.Record
}

const (
	batchFixtureUsers = 4000
	batchFixtureItems = 64
)

func newBatchFixture(tb testing.TB) *batchFixture {
	tb.Helper()
	master := workload.Generate(workload.Config{Intersections: batchFixtureUsers / 2}, 42)
	db := sampleUsers(tb, master, batchFixtureUsers, 42)
	h := New().Handler()
	if w := postSnapshot(h, canonicalBody(db, 50, workload.DefaultMapSide)); w.Code != http.StatusOK {
		tb.Fatalf("snapshot: %d %s", w.Code, w.Body)
	}
	rng := rand.New(rand.NewSource(42))
	cats := [...]string{"gas", "food", "bank", "shop"}
	pois := []byte(`{"mapSide":` + strconv.Itoa(int(workload.DefaultMapSide)) + `,"pois":[`)
	for i := 0; i < 1200; i++ {
		pois = fmt.Appendf(pois, `{"id":"poi-%05d","x":%d,"y":%d,"category":"%s"},`, i,
			rng.Int31n(workload.DefaultMapSide), rng.Int31n(workload.DefaultMapSide), cats[rng.Intn(len(cats))])
	}
	pois = append(pois[:len(pois)-1], `]}`...)
	if w := handlerPost(h, "/v1/pois", string(pois)); w.Code != http.StatusOK {
		tb.Fatalf("pois: %d %s", w.Code, w.Body)
	}
	return &batchFixture{h: h, users: db.Records()}
}

// body appends a batch of batchFixtureItems requests: the users from
// first on, each with params(b, j) as the rest of its parameter vector.
func (f *batchFixture) body(b []byte, first int, params func(b []byte, j int) []byte) []byte {
	b = append(b, `{"requests":[`...)
	for j := 0; j < batchFixtureItems; j++ {
		r := f.users[(first+j)%len(f.users)]
		b = fmt.Appendf(b, `{"user":"%s","x":%d,"y":%d,"params":[{"name":"cat","value":"gas"}`, r.UserID, r.Loc.X, r.Loc.Y)
		b = append(params(b, j), `]},`...)
	}
	return append(b[:len(b)-1], `]}`...)
}

// post serves one batch and returns the response.
func (f *batchFixture) post(tb testing.TB, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/request/batch", bytes.NewReader(body))
	w := httptest.NewRecorder()
	f.h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", w.Code, w.Body)
	}
	return w
}

// hitBodies are nearest-neighbour batches over the whole population,
// served once so that every later serving of them hits.
func (f *batchFixture) hitBodies(tb testing.TB) [][]byte {
	var bodies [][]byte
	candidates, items := 0, 0
	for first := 0; first < len(f.users); first += batchFixtureItems {
		body := f.body(nil, first, func(b []byte, _ int) []byte { return b })
		bodies = append(bodies, body)
		f.post(tb, body) // fills the cache
		w := f.post(tb, body)
		candidates += bytes.Count(w.Body.Bytes(), []byte(`{"id":`))
		items += batchFixtureItems
	}
	if candidates < 10*items {
		tb.Fatalf("%d candidates over %d answers: the fixture no longer has 10 per answer", candidates, items)
	}
	return bodies
}

// BenchmarkRequestBatch is one 64-item /v1/request/batch, handler-direct,
// default flags: "hit" from a warm cache (what serve_batch_hit sends),
// "miss" as range queries whose radii never repeat (serve_batch_miss).
// docs/PERFORMANCE.md §3f quotes both.
func BenchmarkRequestBatch(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		f := newBatchFixture(b)
		bodies := f.hitBodies(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.post(b, bodies[i%len(bodies)])
		}
	})
	b.Run("miss", func(b *testing.B) {
		f := newBatchFixture(b)
		var body []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Building the body is timed too: ~1 % of serving it.
			body = f.body(body[:0], i*batchFixtureItems, func(b []byte, j int) []byte {
				return fmt.Appendf(b, `,{"name":"range","value":"2000.%07d"}`, i*batchFixtureItems+j)
			})
			f.post(b, body)
		}
	})
}

// TestBatchHitAllocs pins what a cached batch item allocates, tracing and
// the 1-in-64 audit on: the two spans with their attributes, the item's
// request ID and the cache key — not the answer, which is copied from the
// cache entry's rendering into a pooled buffer. A count, so it holds on
// any machine; the per-batch share (decode, capture, response recorder)
// is spread over the 64 items.
func TestBatchHitAllocs(t *testing.T) {
	f := newBatchFixture(t)
	bodies := f.hitBodies(t)
	i := 0
	perBatch := testing.AllocsPerRun(200, func() {
		f.post(t, bodies[i%len(bodies)])
		i++
	})
	const ceiling = 6.5
	if perItem := perBatch / batchFixtureItems; perItem > ceiling {
		t.Fatalf("%.1f allocations per batch, %.2f per item, want <= %v", perBatch, perItem, ceiling)
	} else {
		t.Logf("%.1f allocations per batch, %.2f per item", perBatch, perItem)
	}
}
