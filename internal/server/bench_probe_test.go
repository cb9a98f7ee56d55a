package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"policyanon/internal/audit"
	"policyanon/internal/ledger"
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
