package server

import (
	"encoding/json"
	"maps"
	"strings"
	"testing"
	"unsafe"

	"policyanon/internal/geo"
	"policyanon/internal/location"
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
