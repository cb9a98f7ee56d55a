package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"policyanon/internal/motion"
	"policyanon/internal/server"
)

// installTestSnapshot primes a server with a small snapshot via its own
// HTTP handler, exactly as the daemon would receive it.
func installTestSnapshot(t *testing.T, srv *server.Server) {
	t.Helper()
	installTestSnapshotQuery(t, srv, "")
}

// installTestSnapshotQuery is installTestSnapshot with a query string
// ("?engine=...").
func installTestSnapshotQuery(t *testing.T, srv *server.Server, query string) {
	t.Helper()
	users := []server.UserJSON{}
	for i := 0; i < 12; i++ {
		users = append(users, server.UserJSON{
			ID: string(rune('a' + i)), X: int32((i * 7) % 32), Y: int32((i * 11) % 32),
		})
	}
	body, err := json.Marshal(server.SnapshotRequest{K: 3, MapSide: 32, Users: users})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/snapshot"+query, bytes.NewReader(body))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("snapshot install failed: %d %s", rec.Code, rec.Body)
	}
}

func TestWriteCheckpointAtomic(t *testing.T) {
	srv := server.New()
	installTestSnapshot(t, srv)
	path := filepath.Join(t.TempDir(), "state.ck")
	if err := writeCheckpoint(srv, path); err != nil {
		t.Fatal(err)
	}
	// The temp file must be gone and the final file restorable.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fresh := server.New()
	if err := fresh.RestoreFrom(f); err != nil {
		t.Fatalf("restore of written checkpoint failed: %v", err)
	}
}

// TestEndpointListMatchesHandler pins the -h endpoint table to the mux
// internal/server actually registers: every listed route must resolve to
// a handler (a 404 or 405-on-listed-method means the table drifted).
// /debug/pprof/ is mounted by main, not the server handler, so it is
// exempt here.
func TestEndpointListMatchesHandler(t *testing.T) {
	srv := server.New()
	installTestSnapshot(t, srv)
	for _, line := range strings.Split(strings.TrimSpace(endpointList), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("malformed endpoint line: %q", line)
		}
		method, path := fields[0], fields[1]
		if path == "/debug/pprof/" {
			continue
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(nil))
		srv.Handler().ServeHTTP(rec, req)
		// An unregistered route draws the mux's plain-text default page
		// ("404 page not found" / "Method Not Allowed"); registered
		// handlers answer JSON even when they refuse (e.g. the ledger
		// endpoints 404 until -ledger enables them).
		body := rec.Body.String()
		if (rec.Code == 404 || rec.Code == 405) &&
			(strings.Contains(body, "page not found") || strings.Contains(body, "Method Not Allowed")) {
			t.Errorf("%s %s: listed in -h but not routed (%d: %q)", method, path, rec.Code, body)
		}
	}
}

func TestWriteCheckpointEmptyServerFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ck")
	if err := writeCheckpoint(server.New(), path); err == nil {
		t.Fatal("checkpoint of empty server accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed checkpoint left a file behind")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("failed checkpoint left a temp file behind")
	}
}

// TestSaveSnapshotStateKeepsEngine pins the periodic -state write of the
// motion loop: the file it leaves restores under the engine the snapshot
// was installed with, not the default.
func TestSaveSnapshotStateKeepsEngine(t *testing.T) {
	srv := server.New()
	srv.EnableMotion(motion.Config{})
	installTestSnapshotQuery(t, srv, "?engine=hilbert")
	defer srv.DrainMotion(context.Background())
	path := filepath.Join(t.TempDir(), "state.ck")
	if err := saveSnapshotState(path, srv.MotionPipeline().Snapshot()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fresh := server.New()
	if err := fresh.RestoreFrom(f); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rec := httptest.NewRecorder()
	fresh.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st server.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Engine != "hilbert" {
		t.Fatalf("restored engine %q (%v), want hilbert", st.Engine, err)
	}
}
