package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/location"
	_ "policyanon/internal/parallel" // register the "parallel" engine
)

func TestEnginesEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/v1/engines")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("engines: %d %v", resp.StatusCode, body)
	}
	if body["default"] != engine.DefaultName {
		t.Errorf("default = %v, want %q", body["default"], engine.DefaultName)
	}
	listed := make(map[string]map[string]any)
	for _, e := range body["engines"].([]any) {
		info := e.(map[string]any)
		listed[info["name"].(string)] = info
	}
	for _, want := range []string{"bulkdp-binary", "casper", "hilbert", "parallel"} {
		if _, ok := listed[want]; !ok {
			t.Errorf("engine %q missing from listing %v", want, listed)
		}
	}
	if listed["casper"]["policyAware"] != false || listed["bulkdp-binary"]["policyAware"] != true {
		t.Errorf("capability flags wrong in %v", listed)
	}
}

// TestServeTwoEnginesPerRequest pins how one server process serves two
// engines: the snapshot is installed under the engine a request names,
// and /v1/cloak serves that installed policy only. A lookup that names an
// engine is a 400 pointing at the offline comparison tools (an alternative
// engine would be an O(|D|) run on the lookup path), and it leaves the
// installed engine served.
func TestServeTwoEnginesPerRequest(t *testing.T) {
	ts := newTestServer(t)
	// Install the snapshot under casper (per-request query parameter).
	users := []UserJSON{}
	db := location.New(40)
	for i := 0; i < 40; i++ {
		u := UserJSON{
			ID: fmt.Sprintf("u%02d", i),
			X:  int32((i * 13) % 64), Y: int32((i * 29) % 64),
		}
		users = append(users, u)
		if err := db.Add(u.ID, geo.Point{X: u.X, Y: u.Y}); err != nil {
			t.Fatal(err)
		}
	}
	resp, body := post(t, ts.URL+"/v1/snapshot?engine=casper", SnapshotRequest{K: 5, MapSide: 64, Users: users})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, body)
	}
	if body["engine"] != "casper" {
		t.Fatalf("snapshot engine = %v, want casper", body["engine"])
	}
	casper, err := engine.Get("casper")
	if err != nil {
		t.Fatal(err)
	}
	want, err := casper.Anonymize(context.Background(), db, geo.NewRect(0, 0, 64, 64), engine.Params{K: 5})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"bulkdp-binary", "casper", "no-such"} {
		resp, body := get(t, ts.URL+"/v1/cloak?user=u00&engine="+name)
		msg, _ := body["error"].(string)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "anoncli -engine") || !strings.Contains(msg, "lbsbench -exp engines") {
			t.Errorf("cloak lookup under engine %q: %d %v, want a 400 naming the comparison tools", name, resp.StatusCode, body)
		}
	}
	for i := 0; i < 40; i++ {
		user := fmt.Sprintf("u%02d", i)
		resp, body := get(t, ts.URL+"/v1/cloak?user="+user)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cloak %s: %d %v", user, resp.StatusCode, body)
		}
		c := want.CloakAt(i)
		got := body["cloak"].(map[string]any)
		if got["minX"] != float64(c.MinX) || got["minY"] != float64(c.MinY) || got["maxX"] != float64(c.MaxX) || got["maxY"] != float64(c.MaxY) {
			t.Fatalf("cloak of %s = %v, the installed casper policy issues %v", user, got, c)
		}
	}
	// Unknown engine on snapshot is a 400.
	resp, body = post(t, ts.URL+"/v1/snapshot?engine=no-such", SnapshotRequest{K: 5, MapSide: 64, Users: users})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown engine on snapshot: %d %v", resp.StatusCode, body)
	}
	// Stats reports the engine that produced the installed policy.
	resp, body = get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK || body["engine"] != "casper" {
		t.Errorf("stats engine = %v (%d)", body["engine"], resp.StatusCode)
	}
}

// TestMovesUnderNonIncrementalEngine verifies that movement against a
// non-incremental engine recomputes the policy from scratch.
func TestMovesUnderNonIncrementalEngine(t *testing.T) {
	ts := newTestServer(t)
	users := []UserJSON{}
	for i := 0; i < 40; i++ {
		users = append(users, UserJSON{
			ID: fmt.Sprintf("u%02d", i),
			X:  int32((i * 13) % 64), Y: int32((i * 29) % 64),
		})
	}
	resp, body := post(t, ts.URL+"/v1/snapshot?engine=hilbert", SnapshotRequest{K: 5, MapSide: 64, Users: users})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %v", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/moves", map[string]any{
		"moves": []map[string]any{{"id": "u03", "x": 60, "y": 60}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("moves: %d %v", resp.StatusCode, body)
	}
	// The recomputed policy must mask the new location.
	resp, body = get(t, ts.URL+"/v1/cloak?user=u03")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cloak after move: %d %v", resp.StatusCode, body)
	}
	cloak := body["cloak"].(map[string]any)
	if cloak["maxX"].(float64) < 60 || cloak["maxY"].(float64) < 60 {
		t.Fatalf("cloak %v does not mask the moved location (60,60)", cloak)
	}
}
