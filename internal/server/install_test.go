package server

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/location"
	"policyanon/internal/workload"
)

// canonicalBody is the /v1/snapshot body every client of this repository
// sends (and benchmark/gen.go writes): k, mapSide, then users as
// {"id":..,"x":..,"y":..} with no whitespace.
func canonicalBody(db *location.DB, k int, mapSide int32) []byte {
	b := make([]byte, 0, 40*db.Len()+64)
	b = append(b, `{"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"mapSide":`...)
	b = strconv.AppendInt(b, int64(mapSide), 10)
	b = append(b, `,"users":[`...)
	for i, r := range db.Records() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":"`...)
		b = append(b, r.UserID...)
		b = append(b, `","x":`...)
		b = strconv.AppendInt(b, int64(r.Loc.X), 10)
		b = append(b, `,"y":`...)
		b = strconv.AppendInt(b, int64(r.Loc.Y), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// sampleUsers draws n users from a Master set of ten users per
// intersection, the way benchmark/gen.go samples its populations.
func sampleUsers(tb testing.TB, master *location.DB, n int, seed int64) *location.DB {
	tb.Helper()
	db, err := master.Sample(rand.New(rand.NewSource(seed*1_000_003)), n)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// postSnapshot drives POST /v1/snapshot through the handler directly.
func postSnapshot(h http.Handler, body []byte) *httptest.ResponseRecorder {
	return postSnapshotQuery(h, "", body)
}

// postSnapshotQuery is postSnapshot with a query string ("?engine=...").
func postSnapshotQuery(h http.Handler, query string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/snapshot"+query, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// BenchmarkInstall is one /v1/snapshot at the install_repeat workload's
// size, handler-direct: two alternating bodies replacing each other on a
// heap that has already held both, default flags. docs/PERFORMANCE.md §3e
// quotes its time, bytes and allocations per install.
func BenchmarkInstall(b *testing.B) {
	const users = 100000
	b.Run("users="+strconv.Itoa(users), func(b *testing.B) {
		master := workload.Generate(workload.Config{Intersections: users / 2}, 42)
		var bodies [2][]byte
		for i := range bodies {
			bodies[i] = canonicalBody(sampleUsers(b, master, users, 42+int64(i)), 50, workload.DefaultMapSide)
		}
		h := New().Handler()
		install := func(body []byte) {
			if w := postSnapshot(h, body); w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
		for _, body := range bodies {
			install(body)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			install(bodies[i%2])
		}
	})
}

// TestInstallAllocs pins what one /v1/snapshot allocates, handler-direct,
// at 10k users and k=50 (the install_repeat workload's shape at a tenth
// of its size): decode, the snapshot and its user index, the tree, the
// DP, Extract, the install audit and the response. Two bodies alternate,
// as in BenchmarkInstall. The DP's worker pool and the index filled
// beside it start goroutines, so the budget grows with GOMAXPROCS; CI
// runs the test at 1, 2 and 8. Measured on 2 vCPUs: 685 allocs and
// 2.57 MB at 1, 693 and 2.57 MB at 2, 719 and 2.58 MB at 8.
func TestInstallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const users, k, runs = 10000, 50, 4
	master := workload.Generate(workload.Config{Intersections: users / 2}, 42)
	var bodies [2][]byte
	for i := range bodies {
		bodies[i] = canonicalBody(sampleUsers(t, master, users, 42+int64(i)), k, workload.DefaultMapSide)
	}
	h := New().Handler()
	for _, body := range bodies {
		postSnapshot(h, body)
	}
	procs := uint64(runtime.GOMAXPROCS(0))
	maxAllocs, maxBytes := 700+5*(procs-1), 2_700_000+4_000*(procs-1)
	// The fewest over a few runs: goroutine start-up may or may not reuse
	// a parked goroutine, which moves the count by a handful.
	allocs, bytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		w := postSnapshot(h, bodies[i%2])
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("install at GOMAXPROCS=%d: %d allocs, %d B; budget %d allocs, %d B",
			procs, allocs, bytes, maxAllocs, maxBytes)
	}
	t.Logf("install at GOMAXPROCS=%d: %d allocs, %d B (budget %d, %d B)", procs, allocs, bytes, maxAllocs, maxBytes)
}

// TestSnapshotStatuses pins the status of every way a /v1/snapshot can
// fail before or while it builds, handler-direct. A duplicate id is found
// beside the engine, so its 400 must win over whatever the engine
// returned, 422 included, on every engine; the 400 names the id, so an
// operator can find it in a 1.75M-user body.
func TestSnapshotStatuses(t *testing.T) {
	cases := []struct {
		name, query, body string
		want              int
		dup               string // the id a duplicate-id 400 must name
	}{
		{"installs", "", `{"k":2,"mapSide":8,"users":[{"id":"a","x":1,"y":1},{"id":"b","x":2,"y":2}]}`, http.StatusOK, ""},
		{"duplicate id", "", `{"k":2,"mapSide":8,"users":[{"id":"a","x":1,"y":1},{"id":"b","x":2,"y":2},{"id":"a","x":3,"y":3}]}`, http.StatusBadRequest, "a"},
		{"duplicate id and fewer than k users", "", `{"k":5,"mapSide":8,"users":[{"id":"a","x":1,"y":1},{"id":"a","x":2,"y":2}]}`, http.StatusBadRequest, "a"},
		{"duplicate id in the last record", "", `{"k":2,"mapSide":8,"users":[{"id":"a","x":1,"y":1},{"id":"b","x":2,"y":2},{"id":"c","x":3,"y":3},{"id":"c","x":4,"y":4}]}`, http.StatusBadRequest, "c"},
		{"duplicate id, hilbert", "?engine=hilbert", `{"k":2,"mapSide":8,"users":[{"id":"a","x":1,"y":1},{"id":"b","x":2,"y":2},{"id":"b","x":3,"y":3}]}`, http.StatusBadRequest, "b"},
		{"fewer than k users", "", `{"k":5,"mapSide":8,"users":[{"id":"a","x":1,"y":1}]}`, http.StatusUnprocessableEntity, ""},
		{"malformed", "", `{"k":2,"mapSide":8,"users":[{"id":"a","x":1,"y":1}`, http.StatusBadRequest, ""},
		{"trailing garbage", "", `{"k":2,"mapSide":8,"users":[{"id":"a","x":1,"y":1},{"id":"b","x":2,"y":2}]}]`, http.StatusBadRequest, ""},
		{"coordinate out of int32", "", `{"k":1,"mapSide":8,"users":[{"id":"a","x":4294967297,"y":1}]}`, http.StatusBadRequest, ""},
		{"k below 1", "", `{"k":0,"mapSide":8,"users":[]}`, http.StatusBadRequest, ""},
		{"point off the map", "", `{"k":1,"mapSide":8,"users":[{"id":"a","x":8,"y":1}]}`, http.StatusBadRequest, ""},
	}
	for _, c := range cases {
		w := postSnapshotQuery(New().Handler(), c.query, []byte(c.body))
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, w.Code, c.want, w.Body.String())
		}
		if c.dup != "" && !strings.Contains(w.Body.String(), `location: duplicate user id: \"`+c.dup+`\"`) {
			t.Errorf("%s: duplicate-id error does not name %q: %s", c.name, c.dup, w.Body.String())
		}
	}
}

// TestInstallEveryEngine installs one body through every registered
// engine, then the same body with its last id repeated. The user index is
// filled beside the engine, so under -race this shows that no engine,
// and no middleware around it, reads the index before the join: the
// installed snapshot must answer every id, and the duplicate must answer
// its 400 and leave the installed snapshot served.
func TestInstallEveryEngine(t *testing.T) {
	// The index is filled beside the engine only when a second goroutine
	// can run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const users, k = 600, 10
	src := sampleUsers(t, workload.Generate(workload.Config{Intersections: users}, 42), users, 42)
	body := canonicalBody(src, k, workload.DefaultMapSide)
	last := src.At(users - 1)
	dupBody := append(slices.Clip(bytes.TrimSuffix(body, []byte(`]}`))),
		`,{"id":"`+last.UserID+`","x":1,"y":1}]}`...)
	for _, name := range engine.Names() {
		srv := New()
		if w := postSnapshotQuery(srv.Handler(), "?engine="+name, body); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, w.Code, w.Body.String())
		}
		for i, r := range src.Records() {
			if got := srv.db.Index(r.UserID); got != i {
				t.Fatalf("%s: installed index of %q is %d, want %d", name, r.UserID, got, i)
			}
		}
		served := srv.policy
		w := postSnapshotQuery(srv.Handler(), "?engine="+name, dupBody)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), last.UserID) {
			t.Fatalf("%s: duplicate body: status %d: %s", name, w.Code, w.Body.String())
		}
		if srv.policy != served {
			t.Fatalf("%s: a rejected install replaced the served policy", name)
		}
	}
}

// TestSnapshotBodyLimit pins the cap on a snapshot body: a declared
// length over the limit is refused unread, an undeclared one once the
// limit is passed, and the handler answers either with 413.
func TestSnapshotBodyLimit(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/snapshot", strings.NewReader(`{"k":2}`))
	req.ContentLength = maxSnapshotBody + 1
	w := httptest.NewRecorder()
	New().Handler().ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversize: status %d, want 413", w.Code)
	}

	const limit = 64
	for _, n := range []int{limit, limit + 1} {
		for _, declared := range []bool{true, false} {
			req := httptest.NewRequest(http.MethodPost, "/v1/snapshot", strings.NewReader(strings.Repeat(" ", n)))
			if !declared {
				req.ContentLength = -1
			}
			body, err := readBody(httptest.NewRecorder(), req, limit)
			var tooLarge *http.MaxBytesError
			if n > limit {
				if !errors.As(err, &tooLarge) {
					t.Errorf("%d bytes, declared=%v: err %v, want *http.MaxBytesError", n, declared, err)
				}
			} else if err != nil || len(body) != n {
				t.Errorf("%d bytes, declared=%v: %d bytes read, err %v", n, declared, len(body), err)
			}
		}
	}
}

// TestInstallMatchesNewAddReference installs the canonical 10k-user body
// and holds what the server now serves from — built by the one-pass
// decoder and location.FromRecords — to the New + Add database and the
// policy the anonymizer computes over it, cloak for cloak.
func TestInstallMatchesNewAddReference(t *testing.T) {
	const users, k = 10000, 50
	src := sampleUsers(t, workload.Generate(workload.Config{Intersections: users / 2}, 42), users, 42)
	srv := New()
	if w := postSnapshot(srv.Handler(), canonicalBody(src, k, workload.DefaultMapSide)); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}

	ref := location.New(0)
	for _, r := range src.Records() {
		if err := ref.Add(r.UserID, r.Loc); err != nil {
			t.Fatal(err)
		}
	}
	anon, err := core.NewAnonymizer(ref, workload.MapBounds(workload.DefaultMapSide), core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	want, err := anon.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(srv.db.Records(), ref.Records()) {
		t.Fatal("installed records differ from the New+Add reference")
	}
	if srv.db.Version() != ref.Version() {
		t.Fatalf("installed version %d, reference %d", srv.db.Version(), ref.Version())
	}
	if !slices.Equal(srv.policy.Cloaks(), want.Cloaks()) {
		t.Fatal("installed policy differs from the reference policy")
	}
}
