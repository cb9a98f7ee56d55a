package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math/rand"
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
	if err := Save(&buf, k, bounds, pol); err != nil {
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
	if err := Save(&buf, 3, bounds, pol); err != nil {
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
}

func TestUnsafeCheckpointRejected(t *testing.T) {
	// Build a checkpoint whose policy is NOT k-anonymous for the claimed
	// k by saving with an inflated k value.
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
	if err := Save(&buf, 9, bounds, pol); err != nil { // claims k=9
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("unsafe checkpoint: %v", err)
	}
}

func TestSaveNilPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, 2, geo.NewRect(0, 0, 4, 4), nil); err == nil {
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
	if err := Save(&buf, 2, geo.NewRect(0, 0, 4, 4), pol); err != nil {
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
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(p); err != nil {
		t.Fatal(err)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(body.Len()))
	binary.BigEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(body.Bytes()))
	stream := append(append(magic[:], hdr[:]...), body.Bytes()...)
	_, err := Load(bytes.NewReader(stream))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `duplicate user id: "a"`) {
		t.Fatalf("err = %v, want ErrCorrupt naming the duplicate id \"a\"", err)
	}
}
