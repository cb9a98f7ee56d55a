package server

import (
	"encoding/json"
	"maps"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"policyanon/internal/geo"
	"policyanon/internal/location"
	"policyanon/internal/workload"
)

// plainBody is a small body in the plain grammar, with every field.
const plainBody = `{"k":2,"mapSide":8,"engine":"bulkdp-binary","opts":{"workers":"2"},"users":[` +
	`{"id":"Alice","x":1,"y":1},{"id":"Bob","x":1,"y":2},{"id":"Carol","x":-1,"y":4}]}`

// decodeSeeds are bodies on both sides of the plain grammar; plain says
// which side, i.e. whether the one-pass scanner must take the body
// itself or must leave it to encoding/json.
var decodeSeeds = []struct {
	body  string
	plain bool
}{
	{plainBody, true},
	{`{}`, true},
	{`{"users":[]}`, true},
	{`{"users":[{}]}`, true},
	{`{"opts":{},"k":-0}`, true},
	{" {\n\t\"k\" : 7 ,\r\n \"users\" : [ { \"y\" : 2 , \"id\" : \"a b\" , \"x\" : 1 } , {\"x\":3} ] } \n", true},
	{`{"users":[{"y":5,"x":4,"id":"reordered"}],"mapSide":9,"k":3}`, true},
	{`{"k":999999999999999999,"mapSide":2147483647,"users":[{"id":"~","x":-2147483648,"y":2147483647}]}`, true},
	{`{"opts":{"a":"1","a":"2"}}`, true},
	{`{"users":[{"id":"a,{id:}]","x":1,"y":1} ,{"id":"b","x":2,"y":2},` + "\n" + `{"id":"","x":0,"y":-2147483648}]}`, true},
	// Strings the scanner does not own.
	{`{"users":[{"id":"a\"b","x":1,"y":1}]}`, false},
	{`{"users":[{"id":"aA\n","x":1,"y":1}]}`, false},
	{`{"users":[{"id":"Zo` + "ë" + `","x":1,"y":1}]}`, false},
	{"{\"users\":[{\"id\":\"bad\xffutf8\",\"x\":1,\"y\":1}]}", false},
	{"{\"users\":[{\"id\":\"ctl\x01\",\"x\":1,\"y\":1}]}", false},
	{`{"engine":"caf` + "é" + `"}`, false},
	{`{"opts":{"kéy":"v"}}`, false},
	// Keys encoding/json folds, ignores, or lets the last one win.
	{`{"K":2,"MAPSIDE":8,"Users":[{"ID":"a","X":1,"Y":2}]}`, false},
	{`{"k":2,"users":[{"id":"a","x":1,"y":2,"z":3}],"extra":{"deep":[1,2,{"a":null}]}}`, false},
	{`{"k":1,"k":2}`, false},
	{`{"users":[{"id":"a","x":1,"y":1}],"users":[{"id":"b"}]}`, false},
	{`{"users":[{"id":"a","id":"b","x":1,"x":2}]}`, false},
	// Values of another type.
	{`null`, false},
	{`{"users":null,"k":null,"opts":null,"engine":null}`, false},
	{`{"users":[null,{"id":"a","x":null,"y":1},null]}`, false},
	{`{"opts":{"a":null}}`, false},
	{`{"users":[{"id":"a","x":1.0,"y":1}]}`, false},
	{`{"users":[{"id":"a","x":1e2,"y":1}]}`, false},
	{`{"users":[{"id":"a","x":2147483648,"y":1}]}`, false},
	{`{"users":[{"id":"a","x":-2147483649,"y":1}]}`, false},
	{`{"mapSide":4294967296}`, false},
	{`{"k":9223372036854775808}`, false},
	{`{"k":1000000000000000000}`, false},
	{`{"k":01}`, false},
	{`{"k":-}`, false},
	{`{"k":"2"}`, false},
	{`{"users":[{"id":7,"x":1,"y":1}]}`, false},
	{`{"users":{"id":"a"}}`, false},
	{`{"engine":["a"]}`, false},
	// Not one JSON value.
	{``, false},
	{`{"k":2}x`, false},
	{`{"k":2}{"k":3}`, false},
	{`{"k":2,}`, false},
	{`{"users":[{"id":"a","x":1,"y":1},]}`, false},
	{`{"users":[{"id":"a" "x":1}]}`, false},
	{`{"k" 2}`, false},
	{plainBody[:len(plainBody)-1], false},
	{plainBody[:len(plainBody)-2], false},
	{plainBody[:len(plainBody)/2], false},
	{plainBody[:9], false},
}

// requireOracle fails unless decodeSnapshot and json.Unmarshal into the
// wire type agree on body: both reject, or both accept with the same k,
// mapSide, engine, opts and user list.
func requireOracle(t *testing.T, body []byte) {
	t.Helper()
	var want SnapshotRequest
	wantErr := json.Unmarshal(body, &want)
	got, recs, err := decodeSnapshot(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: decodeSnapshot err = %v, json.Unmarshal err = %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.K != want.K || got.MapSide != want.MapSide || got.Engine != want.Engine || !maps.Equal(got.Opts, want.Opts) {
		t.Fatalf("%q: header %+v, want %+v", body, got, want)
	}
	if got.Users != nil {
		t.Fatalf("%q: Users must stay nil, the records are the user list", body)
	}
	if len(recs) != len(want.Users) {
		t.Fatalf("%q: %d users, want %d", body, len(recs), len(want.Users))
	}
	for i, u := range want.Users {
		if w := (location.Record{UserID: u.ID, Loc: geo.Point{X: u.X, Y: u.Y}}); recs[i] != w {
			t.Fatalf("%q: user %d is %+v, want %+v", body, i, recs[i], w)
		}
	}
}

// FuzzSnapshotDecode holds the snapshot decoder to encoding/json on every
// input. The plain-grammar scanner may decline any body; what it must
// never do is accept one json.Unmarshal rejects or decode one differently.
func FuzzSnapshotDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { requireOracle(t, body) })
}

// TestScanSnapshotOwnsOnlyThePlainGrammar pins which side of the grammar
// each seed falls on — a canonical body that silently took the slow path
// would be a performance bug no parity test sees.
func TestScanSnapshotOwnsOnlyThePlainGrammar(t *testing.T) {
	for _, s := range decodeSeeds {
		if _, _, ok := scanSnapshot([]byte(s.body)); ok != s.plain {
			t.Errorf("scanSnapshot(%q) ok = %v, want %v", s.body, ok, s.plain)
		}
	}
}

// TestScanSnapshotIDsShareOneBackingString pins the memory shape of a
// decoded snapshot: every id is a substring of one string that is exactly
// as long as the ids together, in wire order.
func TestScanSnapshotIDsShareOneBackingString(t *testing.T) {
	_, recs, ok := scanSnapshot([]byte(plainBody))
	if !ok || len(recs) != 3 {
		t.Fatalf("ok = %v, %d records", ok, len(recs))
	}
	var ids strings.Builder
	for i, r := range recs {
		ids.WriteString(r.UserID)
		if i > 0 {
			prev := recs[i-1].UserID
			if unsafe.StringData(r.UserID) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev))) {
				t.Fatalf("id %d does not start where id %d ends", i, i-1)
			}
		}
	}
	if ids.String() != "AliceBobCarol" {
		t.Fatalf("ids %q", ids.String())
	}
}

// usersBody is the canonical /v1/snapshot body of n users drawn as
// BenchmarkInstall draws them, from a Master set of at least the paper's
// 1.75M users (Section VI) for n beyond 100k.
func usersBody(tb testing.TB, n int) []byte {
	master := workload.Generate(workload.Config{Intersections: max(n/2, 175000)}, 42)
	return canonicalBody(sampleUsers(tb, master, n, 42), 50, workload.DefaultMapSide)
}

// BenchmarkSnapshotDecode is decodeSnapshot alone on the canonical body:
// at the install_repeat workload's 100k users and at the paper's 1.75M-
// user Master set. Run with -benchmem; docs/PERFORMANCE.md §3k quotes
// both.
func BenchmarkSnapshotDecode(b *testing.B) {
	for _, users := range []int{100000, 1750000} {
		b.Run("users="+strconv.Itoa(users), func(b *testing.B) {
			body := usersBody(b, users)
			runtime.GC()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeSnapshot(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotDecodeAllocs pins what decoding the canonical 100k-user body
// allocates: the records, their id spans and the ids' one string, and at
// most the 4 685 857 B BenchmarkSnapshotDecode reported for the decoder
// before the fast path, whose ids buffer and id ends are now a span per
// id. Measured on 2 vCPUs at GOMAXPROCS 1, 2 and 8: 3 allocs and
// 4 104 192 B (that decoder: 4 and 4 685 824 B by this test's measure).
// The count budget has no margin.
func TestSnapshotDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const maxAllocs, maxBytes = 3, 4_685_857
	body := usersBody(t, 100000)
	allocs, bytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 4; i++ {
		runtime.ReadMemStats(&before)
		_, _, err := decodeSnapshot(body)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("decode: %d allocs, %d B; budget %d allocs, %d B", allocs, bytes, maxAllocs, maxBytes)
	}
	t.Logf("decode: %d allocs, %d B (budget %d, %d B)", allocs, bytes, maxAllocs, maxBytes)
}

// TestSnapshotDecodeBoundedByBody holds what decoding a /v1/snapshot or
// /v1/moves body allocates to a small multiple of the body, whatever it
// holds. The user array's capacity is guessed from its closing braces
// but capped by how many of the shortest users fit in its bytes, so
// braces inside an id, or an array of nothing but braces, cannot make a
// body within the 256 MiB cap ask for gigabytes.
func TestSnapshotDecodeBoundedByBody(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4 << 20
	for _, users := range []string{
		`[{"id":"` + strings.Repeat("{}", n/2) + `","x":1,"y":1}]`,
		`[{"id":"` + strings.Repeat("}", n) + `","x":1,"y":1},{"id":"b","x":2,"y":2}]`,
		`[` + strings.Repeat("}", n) + `]`,
		`[` + strings.Repeat("{", n) + `]`,
		`[{` + strings.Repeat("{}", n/2),
	} {
		for _, body := range [][]byte{[]byte(`{"users":` + users + `}`), []byte(`{"moves":` + users + `}`)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if body[2] == 'u' {
				decodeSnapshot(body)
			} else {
				decodeMoves(body)
			}
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, 4*uint64(len(body)); got > limit {
				t.Errorf("%.40q…: decoding %d B allocated %d B, over %d", body, len(body), got, limit)
			}
		}
	}
}

// TestPlainUserMatchesUser holds the fast path for the canonical element
// to the general element decoder: each element, followed by what may come
// after it in an array, decodes through element (plainUser, then user if
// it declines) exactly as through user alone — id, point, cursor, bad and
// negZero. plain says which elements plainUser must take itself: one
// that silently fell back would be a performance bug no parity test sees.
func TestPlainUserMatchesUser(t *testing.T) {
	cases := []struct {
		elem  string
		plain bool
	}{
		{`{"id":"u00012345","x":812345,"y":4}`, true},
		{`{"id":"","x":0,"y":0}`, true},
		{`{"id":"a","x":2147483647,"y":-2147483648}`, true},
		{`{"id":"a","x":-2147483647,"y":2147483647}`, true},
		{`{"id":",{id:,{","x":1,"y":1}`, true},
		{`{"id":"}","x":1,"y":1}`, true},
		{`{"id":"]","x":1,"y":1}`, true},
		{`{"id":" ~{}[]:,","x":10,"y":-10}`, true},
		// Spelled otherwise, or not what int32 and str take.
		{`{"id":"a","x":-0,"y":1}`, false},
		{`{"id":"a","x":1,"y":-0}`, false},
		{`{"id":"a","x":00,"y":1}`, false},
		{`{"id":"a","x":01,"y":1}`, false},
		{`{"id":"a","x":-01,"y":1}`, false},
		{`{"id":"a","x":2147483648,"y":1}`, false},
		{`{"id":"a","x":1,"y":-2147483649}`, false},
		{`{"id":"a","x":12345678901,"y":1}`, false},
		{`{"id":"a","x":1234567890123456789,"y":1}`, false},
		{`{"id":"a","x":1.5,"y":1}`, false},
		{`{"id":"a","x":1e2,"y":1}`, false},
		{`{"id":"a","x":-,"y":1}`, false},
		{`{"id":"a","x":+1,"y":1}`, false},
		{`{"id":"a","x":,"y":1}`, false},
		{`{"x":1,"id":"a","y":2}`, false},
		{`{"y":2,"x":1,"id":"a"}`, false},
		{`{"id":"a","y":2,"x":1}`, false},
		{`{"id":"a","x":1}`, false},
		{`{"id":"a","x":1,"y":2,"x":3}`, false},
		{`{}`, false},
		{`{ "id":"a","x":1,"y":2}`, false},
		{`{"id" :"a","x":1,"y":2}`, false},
		{`{"id":"a" ,"x":1,"y":2}`, false},
		{`{"id":"a","x": 1,"y":2}`, false},
		{`{"id":"a","x":1 ,"y":2}`, false},
		{`{"id":"a","x":1,"y":2 }`, false},
		{"{\"id\":\"a\",\"x\":1,\n\"y\":2}", false},
		{`{"id":"a\"b","x":1,"y":1}`, false},
		{`{"id":"a\\","x":1,"y":1}`, false},
		{"{\"id\":\"ctl\x01\",\"x\":1,\"y\":1}", false},
		{`{"id":"Zo` + "ë" + `","x":1,"y":1}`, false},
		{`{"ID":"a","x":1,"y":1}`, false},
		{`{"id":"a","x":1,"y":1`, false},
		{`{"id":"a","x":1,"y":`, false},
		{`{"id":"a`, false},
		{`{"id":`, false},
		{``, false},
		{`null`, false},
	}
	for _, c := range cases {
		for _, after := range []string{"", ",", "]", ` , {"id":"b"}`} {
			body := []byte(c.elem + after)
			fast := scanner{b: body}
			_, _, took := fast.plainUser()
			if took != c.plain {
				t.Errorf("%q: plainUser took it = %v, want %v", body, took, c.plain)
			}
			fast = scanner{b: body}
			id, loc := fast.element()
			slow := scanner{b: body}
			wantID, wantLoc := slow.user()
			if id != wantID || loc != wantLoc || fast.i != slow.i || fast.bad != slow.bad || fast.negZero != slow.negZero {
				t.Errorf("%q: element %+v %v at %d bad=%v negZero=%v, user %+v %v at %d bad=%v negZero=%v",
					body, id, loc, fast.i, fast.bad, fast.negZero, wantID, wantLoc, slow.i, slow.bad, slow.negZero)
			}
		}
	}
}
