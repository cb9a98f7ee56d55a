package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

func makeState(t *testing.T, n, k int) (*location.DB, geo.Rect, int, *State) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	db := location.New(n)
	for i := 0; i < n; i++ {
		if err := db.Add(userID(i), geo.Point{X: rng.Int31n(256), Y: rng.Int31n(256)}); err != nil {
			t.Fatal(err)
		}
	}
	bounds := geo.NewRect(0, 0, 256, 256)
	anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &State{K: k, Bounds: bounds, Policy: pol}); err != nil {
		t.Fatal(err)
	}
	st, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return db, bounds, k, st
}

func userID(i int) string {
	s := ""
	for {
		s = string(rune('a'+i%26)) + s
		i /= 26
		if i == 0 {
			return "u" + s
		}
	}
}

func TestRoundTrip(t *testing.T) {
	db, bounds, k, st := makeState(t, 80, 5)
	if st.K != k || st.Bounds != bounds || st.DB.Len() != db.Len() {
		t.Fatalf("restored state mismatch: %+v", st)
	}
	for i := 0; i < db.Len(); i++ {
		orig := db.At(i)
		got, err := st.DB.Lookup(orig.UserID)
		if err != nil || got != orig.Loc {
			t.Fatalf("user %q restored at %v, want %v", orig.UserID, got, orig.Loc)
		}
		cloak, err := st.Policy.CloakOf(orig.UserID)
		if err != nil || !cloak.ContainsClosed(orig.Loc) {
			t.Fatalf("restored cloak %v invalid for %q", cloak, orig.UserID)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := location.New(20)
	for i := 0; i < 20; i++ {
		if err := db.Add(userID(i), geo.Point{X: rng.Int31n(64), Y: rng.Int31n(64)}); err != nil {
			t.Fatal(err)
		}
	}
	bounds := geo.NewRect(0, 0, 64, 64)
	anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &State{K: 3, Bounds: bounds, Policy: pol}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one byte in the middle of the payload.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bit flip accepted")
	}
	// Truncate.
	if _, err := Load(bytes.NewReader(good[:len(good)-3])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated stream: %v", err)
	}
	// Wrong magic.
	bad2 := append([]byte(nil), good...)
	bad2[0] = 'X'
	if _, err := Load(bytes.NewReader(bad2)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
	// Empty stream.
	if _, err := Load(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty stream: %v", err)
	}
	// A header declaring 3 GiB over a short stream is refused without
	// allocating what it declares.
	huge := append([]byte(nil), good[:20]...)
	binary.BigEndian.PutUint64(huge[8:16], 3<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Load(bytes.NewReader(huge))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || after.TotalAlloc-before.TotalAlloc > 1<<20 {
		t.Fatalf("declared 3 GiB: err %v after allocating %d bytes", err, after.TotalAlloc-before.TotalAlloc)
	}
}

func TestUnsafeCheckpointRejected(t *testing.T) {
	// A policy that is NOT k-anonymous for the claimed k (an inflated k
	// value): Save refuses to write it, and Load refuses a stream of it.
	rng := rand.New(rand.NewSource(3))
	db := location.New(10)
	for i := 0; i < 10; i++ {
		if err := db.Add(userID(i), geo.Point{X: rng.Int31n(64), Y: rng.Int31n(64)}); err != nil {
			t.Fatal(err)
		}
	}
	bounds := geo.NewRect(0, 0, 64, 64)
	anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &State{K: 9, Bounds: bounds, Policy: pol}); !errors.Is(err, ErrUnsafe) || buf.Len() != 0 { // claims k=9
		t.Fatalf("Save of an unsafe policy: err %v, %d bytes written", err, buf.Len())
	}
	// A stream framed past Save's check is refused by Load.
	p := payload{Version: Version, K: 9, Bounds: bounds, Users: make([]userRec, db.Len())}
	for i := range p.Users {
		p.Users[i] = userRec{ID: db.At(i).UserID, Loc: db.At(i).Loc, Cloak: pol.CloakAt(i)}
	}
	if err := write(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("unsafe checkpoint: %v", err)
	}
}

func TestSaveNilPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, &State{K: 2, Bounds: geo.NewRect(0, 0, 4, 4)}); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	db := location.New(0)
	pol, err := lbs.NewAssignment(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &State{K: 2, Bounds: geo.NewRect(0, 0, 4, 4), Policy: pol}); err != nil {
		t.Fatal(err)
	}
	st, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.DB.Len() != 0 {
		t.Fatalf("restored %d users from empty checkpoint", st.DB.Len())
	}
}

// TestDuplicateUserRejected pins the restore path's duplicate-id rule,
// which it shares with /v1/snapshot through location.FromRecords' one
// index loop: a checkpoint that repeats an id is corrupt, and says which
// id, even when its policy would also fail the safety check.
func TestDuplicateUserRejected(t *testing.T) {
	cloak := geo.NewRect(0, 0, 64, 64)
	p := payload{Version: Version, K: 9, Bounds: cloak, Users: []userRec{
		{ID: "a", Loc: geo.Point{X: 1, Y: 1}, Cloak: cloak},
		{ID: "b", Loc: geo.Point{X: 2, Y: 2}, Cloak: cloak},
		{ID: "a", Loc: geo.Point{X: 3, Y: 3}, Cloak: cloak},
	}}
	var stream bytes.Buffer
	if err := write(&stream, p); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&stream)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `duplicate user id: "a"`) {
		t.Fatalf("err = %v, want ErrCorrupt naming the duplicate id \"a\"", err)
	}
}

// TestEngineRecorded pins the engine fields: Save records them, Load
// returns them, and a body written before they existed (no Engine or
// Opts field at all) still loads, with an empty Engine: the default.
func TestEngineRecorded(t *testing.T) {
	_, bounds, k, st := makeState(t, 80, 5)
	st.Engine, st.Opts = "hilbert", map[string]string{"workers": "2"}
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine != "hilbert" || len(got.Opts) != 1 || got.Opts["workers"] != "2" {
		t.Fatalf("restored engine %q options %v", got.Engine, got.Opts)
	}
	type legacy struct {
		Version int
		K       int
		Bounds  geo.Rect
		Users   []userRec
	}
	old := legacy{Version: Version, K: k, Bounds: bounds, Users: make([]userRec, st.DB.Len())}
	for i := range old.Users {
		old.Users[i] = userRec{ID: st.DB.At(i).UserID, Loc: st.DB.At(i).Loc, Cloak: st.Policy.CloakAt(i)}
	}
	buf.Reset()
	if err := write(&buf, old); err != nil {
		t.Fatal(err)
	}
	if got, err = Load(&buf); err != nil {
		t.Fatalf("legacy body: %v", err)
	}
	if got.Engine != "" || got.Opts != nil || got.DB.Len() != st.DB.Len() {
		t.Fatalf("legacy body: engine %q, options %v, %d users", got.Engine, got.Opts, got.DB.Len())
	}
}
