package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/motion"
)

// plainRequest is a /v1/request body in the plain grammar, as
// benchmark/gen.go writes it.
const plainRequest = `{"user":"u7","x":27,"y":11,"params":[{"name":"cat","value":"gas"},{"name":"range","value":"250.5"}]}`

// requestSeeds are /v1/request bodies on both sides of the plain grammar
// (decodeSeeds has the cases that are about the scanner's tokens).
var requestSeeds = []struct {
	body  string
	plain bool
}{
	{plainRequest, true},
	{`{}`, true},
	{`{"user":"a"}`, true},
	{`{"params":[]}`, true},
	{`{"params":[{}]}`, true},
	{`{"params":[{"value":"v","name":"n"}],"y":-2147483648,"x":2147483647,"user":""}`, true},
	{" {\n\"user\" : \"a b\" , \"params\" : [ { \"name\" : \"cat\" } , { } ] } \r\n", true},
	{`{"user":"a<b>&c"}`, true},
	{`{"user":"a\"b"}`, false},
	{`{"user":"Zo` + "ë" + `"}`, false},
	{"{\"user\":\"bad\xffutf8\"}", false},
	{`{"User":"a","X":1}`, false},
	{`{"user":"a","extra":1}`, false},
	{`{"user":"a","user":"b"}`, false},
	{`{"params":[{"name":"a","name":"b"}]}`, false},
	{`{"params":[{"name":"a","other":"b"}]}`, false},
	{`{"params":[],"params":[{"name":"a"}]}`, false},
	{`{"params":null}`, false},
	{`{"params":[null]}`, false},
	{`{"params":{"name":"a"}}`, false},
	{`{"params":[{"name":7}]}`, false},
	{`{"x":1.0}`, false},
	{`{"x":2147483648}`, false},
	{`{"user":7}`, false},
	{`null`, false},
	{`[]`, false},
	{``, false},
	{plainRequest + `x`, false},
	{plainRequest + plainRequest, false},
	{plainRequest[:len(plainRequest)-1], false},
	{plainRequest[:len(plainRequest)/2], false},
	{`{"params":[{"name":"a"},]}`, false},
}

// batchSeeds wrap the request seeds and add the envelope's own cases.
func batchSeeds() []struct {
	body  string
	plain bool
} {
	seeds := []struct {
		body  string
		plain bool
	}{
		{`{}`, true},
		{`{"requests":[]}`, true},
		{` { "requests" : [ ] } `, true},
		{`{"requests":[` + plainRequest + `,{},` + plainRequest + `]}`, true},
		{`{"requests":[{"params":[]},{"params":[{"name":"a"}]},{"params":[]}]}`, true},
		{`{"requests":null}`, false},
		{`{"requests":[null]}`, false},
		{`{"requests":{}}`, false},
		{`{"Requests":[]}`, false},
		{`{"requests":[],"requests":[{}]}`, false},
		{`{"requests":[],"other":1}`, false},
		{`{"requests":[{}]}]`, false},
		{`{"requests":[{}] garbage`, false},
		{`{"requests":[{},]}`, false},
		{`{"requests":[{}`, false},
	}
	for _, s := range requestSeeds {
		seeds = append(seeds, struct {
			body  string
			plain bool
		}{`{"requests":[` + s.body + `]}`, s.plain || s.body == ""})
	}
	return seeds
}

// requireRequestOracle fails unless decodeRequest and json.Unmarshal into
// the wire type agree on body: both reject, or both accept with equal
// values.
func requireRequestOracle(t *testing.T, body []byte) {
	t.Helper()
	var want ServiceRequestJSON
	wantErr := json.Unmarshal(body, &want)
	got, err := decodeRequest(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: decodeRequest err = %v, json.Unmarshal err = %v", body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %#v, want %#v", body, got, want)
	}
}

func requireBatchOracle(t *testing.T, body []byte) {
	t.Helper()
	var want BatchRequestJSON
	wantErr := json.Unmarshal(body, &want)
	got, n, err := decodeBatch(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: decodeBatch err = %v, json.Unmarshal err = %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if n != len(want.Requests) {
		t.Fatalf("%q: counted %d requests, want %d", body, n, len(want.Requests))
	}
	if n <= maxBatchRequests && !reflect.DeepEqual(got, want.Requests) {
		t.Fatalf("%q: decoded %#v, want %#v", body, got, want.Requests)
	}
}

// FuzzRequestDecode and FuzzBatchDecode hold the serving routes' decoders
// to encoding/json on every input, as FuzzSnapshotDecode does the
// snapshot's: the scanner may decline any body, and must never accept one
// json.Unmarshal rejects or decode one differently.
func FuzzRequestDecode(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { requireRequestOracle(t, body) })
}

func FuzzBatchDecode(f *testing.F) {
	for _, s := range batchSeeds() {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { requireBatchOracle(t, body) })
}

// TestRequestScannersOwnOnlyThePlainGrammar pins which side of the
// grammar each seed falls on: a client's canonical body that silently
// took the encoding/json path would be a performance bug no parity test
// sees.
func TestRequestScannersOwnOnlyThePlainGrammar(t *testing.T) {
	for _, s := range requestSeeds {
		if _, ok := scanRequest([]byte(s.body)); ok != s.plain {
			t.Errorf("scanRequest(%q) ok = %v, want %v", s.body, ok, s.plain)
		}
	}
	for _, s := range batchSeeds() {
		if _, _, ok := scanBatch([]byte(s.body)); ok != s.plain {
			t.Errorf("scanBatch(%q) ok = %v, want %v", s.body, ok, s.plain)
		}
	}
}

// BatchItemJSON is one request's result within a batch response as a
// struct for encoding/json: appendItem's oracle, and what tests decode
// responses into.
type BatchItemJSON struct {
	RequestID  string    `json:"requestID,omitempty"`
	RID        uint64    `json:"rid,omitempty"`
	Cloak      *RectJSON `json:"cloak,omitempty"`
	Candidates []POIJSON `json:"candidates,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// oracleBodies renders the two 200 bodies with encoding/json: json.Encoder
// over a map[string]any of the wire structs.
func oracleBodies(t *testing.T, batchRID string, items []served) (single, batch []byte) {
	t.Helper()
	wire := make([]BatchItemJSON, len(items))
	for i, sv := range items {
		wire[i].RequestID = batchRID + "-" + strconv.Itoa(i)
		if sv.err != nil {
			wire[i].Error = sv.err.Error()
			continue
		}
		cl := rectJSON(sv.cloak)
		out := make([]POIJSON, len(sv.answer))
		for j, p := range sv.answer {
			out[j] = POIJSON{ID: p.ID, X: p.Loc.X, Y: p.Loc.Y, Category: p.Category}
		}
		wire[i].RID, wire[i].Cloak, wire[i].Candidates = sv.rid, &cl, out
	}
	var sb, bb bytes.Buffer
	if err := json.NewEncoder(&bb).Encode(map[string]any{"results": wire}); err != nil {
		t.Fatal(err)
	}
	if items[0].err == nil {
		err := json.NewEncoder(&sb).Encode(map[string]any{
			"rid": items[0].rid, "cloak": *wire[0].Cloak, "candidates": wire[0].Candidates,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return sb.Bytes(), bb.Bytes()
}

// requireEncoderOracle holds writeRequestOK (for items[0], unless it
// failed) and writeBatchOK to oracleBodies, headers included.
func requireEncoderOracle(t *testing.T, batchRID string, items []served) {
	t.Helper()
	wantSingle, wantBatch := oracleBodies(t, batchRID, items)
	check := func(what string, w *httptest.ResponseRecorder, want []byte) {
		t.Helper()
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("%s:\n got %q\nwant %q", what, w.Body.Bytes(), want)
		}
		if got := w.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Fatalf("%s: Content-Length %q for %d bytes", what, got, len(want))
		}
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q", what, w.Code, w.Header().Get("Content-Type"))
		}
	}
	w := httptest.NewRecorder()
	writeBatchOK(w, batchRID, items)
	check("batch", w, wantBatch)
	if items[0].err == nil {
		w = httptest.NewRecorder()
		writeRequestOK(w, &items[0])
		check("single", w, wantSingle)
	}
}

// FuzzItemEncode holds the append encoder to encoding/json, byte for byte,
// on generated answers: one rendered fresh, the same one from a stored
// rendering (renderCandidates), an empty one, and a failed item.
func FuzzItemEncode(f *testing.F) {
	f.Add("9f2c41aa-000017", uint64(7), int32(0), int32(-4), int32(1024), int32(2147483647), "p1p22p333", "gas", uint8(3), "lbs: request by \"u7\" invalid w.r.t. snapshot")
	f.Add("a<b>&c\"d\\e", uint64(0), int32(1), int32(2), int32(3), int32(4), "<>&\"\\/", "r&b", uint8(2), "<script>")
	f.Add("ctl\x00\x01\b\f\n\r\t\x1f\x7f", uint64(1<<63), int32(-1), int32(-1), int32(-1), int32(-1), "\x00\x1f \u2028\u2029\ufffd", "\xff\xfe", uint8(4), "bad\xffutf8")
	f.Add("trunc\xe2\x80", uint64(1), int32(0), int32(0), int32(0), int32(0), "\xe2\x80\xa8\xe2\x80\xa9\xf0\x9f\x98\x80\xed\xa0\x80", "é", uint8(5), "")
	f.Add("", uint64(18446744073709551615), int32(5), int32(6), int32(7), int32(8), "", "", uint8(0), "only an error")
	f.Fuzz(func(t *testing.T, batchRID string, rid uint64, minX, minY, maxX, maxY int32, ids, category string, n uint8, errMsg string) {
		// n candidates whose ids are the n pieces of ids — cut anywhere,
		// so also through a UTF-8 sequence.
		answer := make([]lbs.POI, n%24)
		for j := range answer {
			answer[j] = lbs.POI{
				ID:       ids[j*len(ids)/len(answer) : (j+1)*len(ids)/len(answer)],
				Loc:      geo.Point{X: minX + int32(j), Y: maxY - int32(j)},
				Category: category,
			}
		}
		cloak := geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
		requireEncoderOracle(t, batchRID, []served{
			{rid: rid, cloak: cloak, answer: answer},
			{rid: rid + 1, cloak: cloak, answer: answer, rendered: renderCandidates(answer)},
			{rid: rid, cloak: cloak, answer: []lbs.POI{}},
			{err: errors.New(errMsg)},
		})
		requireEncoderOracle(t, batchRID, []served{{err: errors.New(errMsg)}})
	})
}

// handlerPost drives one POST through the handler directly.
func handlerPost(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// newServingFixture is a server with the 40-user fixture snapshot (k=5)
// and the given POIs installed, handler-direct.
func newServingFixture(t *testing.T, pois string) (*Server, http.Handler) {
	t.Helper()
	srv := New()
	h := srv.Handler()
	installFixture(t, h)
	if w := handlerPost(h, "/v1/pois", pois); w.Code != http.StatusOK {
		t.Fatalf("pois: %d %s", w.Code, w.Body)
	}
	return srv, h
}

// installFixture installs the 40-user fixture snapshot (k=5, user i at
// seedLoc(i)) through the handler.
func installFixture(t *testing.T, h http.Handler) {
	t.Helper()
	var snap strings.Builder
	snap.WriteString(`{"k":5,"mapSide":64,"users":[`)
	for i := 0; i < 40; i++ {
		x, y := seedLoc(i)
		fmt.Fprintf(&snap, `{"id":"u%02d","x":%d,"y":%d},`, i, x, y)
	}
	if w := handlerPost(h, "/v1/snapshot", strings.TrimSuffix(snap.String(), ",")+"]}"); w.Code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", w.Code, w.Body)
	}
}

const fixturePOIs = `{"mapSide":64,"pois":[{"id":"gas1","x":10,"y":10,"category":"gas"},` +
	`{"id":"gas<2>","x":50,"y":50,"category":"gas"},{"id":"rest1","x":30,"y":30,"category":"rest"}]}`

// TestRequestBodyStatuses pins what the serving routes make of a body
// they cannot take: trailing bytes after the value are a 400 (the body is
// decoded whole, like /v1/snapshot's), a body over the route's limit is a
// 413 before it is read, and a batch over maxBatchRequests is refused by
// count.
func TestRequestBodyStatuses(t *testing.T) {
	_, h := newServingFixture(t, fixturePOIs)
	x, y := seedLoc(3)
	good := fmt.Sprintf(`{"user":"u03","x":%d,"y":%d,"params":[{"name":"cat","value":"gas"}]}`, x, y)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"request", "/v1/request", good, http.StatusOK},
		{"batch", "/v1/request/batch", `{"requests":[` + good + `]}`, http.StatusOK},
		{"request, trailing space", "/v1/request", good + " \n", http.StatusOK},
		{"request, trailing bytes", "/v1/request", good + " garbage", http.StatusBadRequest},
		{"request, second value", "/v1/request", good + good, http.StatusBadRequest},
		{"batch, trailing bytes", "/v1/request/batch", `{"requests":[` + good + `]} garbage`, http.StatusBadRequest},
		{"batch, trailing bracket", "/v1/request/batch", `{"requests":[` + good + `]}]`, http.StatusBadRequest},
		// The same through the encoding/json path (an escape is not plain).
		{"request, escaped, trailing bytes", "/v1/request", `{"user":"\u0075"} x`, http.StatusBadRequest},
		{"batch, escaped, trailing bytes", "/v1/request/batch", `{"requests":[{"user":"\u0075"}]} x`, http.StatusBadRequest},
		{"request at the limit", "/v1/request", good + strings.Repeat(" ", maxItemBytes-len(good)), http.StatusOK},
		{"request over the limit", "/v1/request", good + strings.Repeat(" ", maxItemBytes+1-len(good)), http.StatusRequestEntityTooLarge},
		{"empty batch", "/v1/request/batch", `{"requests":[]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := handlerPost(h, c.path, c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, w.Code, c.want, w.Body)
		}
	}

	// A declared length over the batch limit is refused unread.
	req := httptest.NewRequest(http.MethodPost, "/v1/request/batch", strings.NewReader(`{"requests":[{}]}`))
	req.ContentLength = maxBatchBody + 1
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize batch: status %d, want 413", w.Code)
	}

	// One request too many, each as small as the grammar allows: refused
	// by count, with the count, plain grammar or not.
	over := `{"requests":[` + strings.Repeat(`{},`, maxBatchRequests) + `{}]}`
	for _, body := range []string{over, strings.Replace(over, `{}`, `{"user":"\u0075"}`, 1)} {
		w := handlerPost(h, "/v1/request/batch", body)
		want := fmt.Sprintf("batch of %d exceeds the %d-request limit", maxBatchRequests+1, maxBatchRequests)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
			t.Errorf("over-count batch: status %d %s, want 400 %q", w.Code, w.Body, want)
		}
	}
	if reqs, n, ok := scanBatch([]byte(over)); !ok || n != maxBatchRequests+1 || reqs != nil {
		t.Errorf("scanBatch over the count: %d requests materialised, n = %d, ok = %v", len(reqs), n, ok)
	}
}

// TestMovesBodyStatuses pins the same for POST /v1/moves on both of its
// protocols, the synchronous one and streaming ingest: the body is read
// once under the batch limit (413 beyond it, declared or not) and decoded
// whole (trailing bytes are a 400).
func TestMovesBodyStatuses(t *testing.T) {
	x, y := seedLoc(3)
	good := fmt.Sprintf(`{"moves":[{"id":"u03","x":%d,"y":%d}]}`, x, y)
	oversize := good + strings.Repeat(" ", maxBatchBody+1-len(good))
	for _, streaming := range []bool{false, true} {
		srv := New()
		if streaming {
			srv.EnableMotion(motion.Config{FlushInterval: time.Millisecond})
			t.Cleanup(func() {
				if err := srv.DrainMotion(context.Background()); err != nil {
					t.Error(err)
				}
			})
		}
		h := srv.Handler()
		installFixture(t, h)
		if (srv.MotionPipeline() != nil) != streaming {
			t.Fatalf("streaming = %v, pipeline %v", streaming, srv.MotionPipeline())
		}
		ok := http.StatusOK
		if streaming {
			ok = http.StatusAccepted
		}
		cases := []struct {
			name, body string
			want       int
		}{
			{"moves", good, ok},
			{"trailing space", good + " \n", ok},
			{"trailing bytes", good + " garbage", http.StatusBadRequest},
			{"second value", good + good, http.StatusBadRequest},
			{"over the limit", oversize, http.StatusRequestEntityTooLarge},
		}
		for _, c := range cases {
			if w := handlerPost(h, "/v1/moves", c.body); w.Code != c.want {
				t.Errorf("streaming=%v, %s: status %d, want %d: %.200s", streaming, c.name, w.Code, c.want, w.Body)
			}
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/moves", strings.NewReader(oversize))
		req.ContentLength = -1 // undeclared: refused while reading
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("streaming=%v, undeclared oversize: status %d, want 413", streaming, w.Code)
		}
		req = httptest.NewRequest(http.MethodPost, "/v1/moves", strings.NewReader(good))
		req.ContentLength = maxBatchBody + 1 // declared: refused unread
		w = httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("streaming=%v, declared oversize: status %d, want 413", streaming, w.Code)
		}
	}
}

// TestInstallBodyStatuses pins the same for the other install route,
// POST /v1/pois, under /v1/snapshot's limit: the body is decoded whole
// (trailing bytes after a POI document are a 400) and a declared length
// over the limit is a 413 before any byte is read. At and one byte over
// the limit itself (256 MiB) the routes share readBody, which
// TestSnapshotBodyLimit pins at a small limit.
func TestInstallBodyStatuses(t *testing.T) {
	_, h := newServingFixture(t, fixturePOIs)
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"pois", "/v1/pois", fixturePOIs, http.StatusOK},
		{"pois, trailing space", "/v1/pois", fixturePOIs + " \n", http.StatusOK},
		{"pois, trailing bytes", "/v1/pois", fixturePOIs + " garbage", http.StatusBadRequest},
		{"pois, second value", "/v1/pois", fixturePOIs + fixturePOIs, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := handlerPost(h, c.path, c.body); w.Code != c.want {
			t.Errorf("%s: status %d, want %d: %.200s", c.name, w.Code, c.want, w.Body)
		}
	}
	body := &unreadBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/pois", body)
	req.ContentLength = maxSnapshotBody + 1
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge || body.reads != 0 {
		t.Errorf("/v1/pois, declared oversize: status %d after %d reads, want 413 unread", w.Code, body.reads)
	}
}

// unreadBody is a request body that counts the reads made of it.
type unreadBody struct{ reads int }

func (b *unreadBody) Read([]byte) (int, error) {
	b.reads++
	return 0, io.EOF
}

// reencode passes a 200 body of either serving route through the wire
// structs and back: what encoding/json writes for the value the body
// holds.
func reencode(t *testing.T, path string, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	var err error
	if path == "/v1/request" {
		var v struct {
			RID        uint64    `json:"rid"`
			Cloak      RectJSON  `json:"cloak"`
			Candidates []POIJSON `json:"candidates"`
		}
		if err = json.Unmarshal(body, &v); err == nil {
			err = json.NewEncoder(&out).Encode(map[string]any{"rid": v.RID, "cloak": v.Cloak, "candidates": v.Candidates})
		}
	} else {
		var v struct {
			Results []BatchItemJSON `json:"results"`
		}
		if err = json.Unmarshal(body, &v); err == nil {
			err = json.NewEncoder(&out).Encode(map[string]any{"results": v.Results})
		}
	}
	if err != nil {
		t.Fatalf("%s: %v: %s", path, err, body)
	}
	return out.Bytes()
}

// TestHitFromStoredRenderingIsByteIdentical: what a client reads does not
// depend on where the candidates' bytes came from. The same request is a
// miss (rendered fresh), a first hit (rendered for the cache entry) and
// repeat hits (copied from the entry), on both routes; then again after a
// FlushCache, after enough other keys to rotate the entry's shard through
// its generations, and after a /v1/pois re-install that changes the
// answer. Every body is what encoding/json writes for its value, and the
// rounds differ in their request ids only.
func TestHitFromStoredRenderingIsByteIdentical(t *testing.T) {
	srv, h := newServingFixture(t, fixturePOIs)
	x, y := seedLoc(3)
	user := fmt.Sprintf(`{"user":"u03","x":%d,"y":%d,"params":[{"name":"cat","value":"gas"}`, x, y)
	single := user + `]}`
	batch := `{"requests":[` + single + `,{"user":"nobody"},` + single + `]}`
	ids := regexp.MustCompile(`"(rid|requestID)":("[^"]*"|\d+)`)
	candidates := regexp.MustCompile(`"candidates":\[[^\]]*\]`)
	round := func(when string) string {
		t.Helper()
		var bodies [2][]byte
		for i, rq := range [2]struct{ path, body string }{{"/v1/request", single}, {"/v1/request/batch", batch}} {
			w := handlerPost(h, rq.path, rq.body)
			if w.Code != http.StatusOK {
				t.Fatalf("%s, %s: status %d: %s", when, rq.path, w.Code, w.Body)
			}
			bodies[i] = w.Body.Bytes()
			if want := reencode(t, rq.path, bodies[i]); !bytes.Equal(bodies[i], want) {
				t.Fatalf("%s, %s:\n got %s\nwant %s", when, rq.path, bodies[i], want)
			}
		}
		member := candidates.Find(bodies[0])
		if member == nil || bytes.Count(bodies[1], member) != 2 {
			t.Fatalf("%s: the batch does not carry the single answer's %s twice: %s", when, member, bodies[1])
		}
		return string(ids.ReplaceAll(bytes.Join(bodies[:], nil), []byte(`"$1":0`)))
	}
	settle := func(when, fresh string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if got := round(when); got != fresh {
				t.Fatalf("%s, hit round %d:\n got %s\nwant %s", when, i, got, fresh)
			}
		}
	}
	// churn serves n never-repeated range keys of the same user.
	serial := 0
	churn := func(n int) {
		t.Helper()
		for ; n > 0; n -= 500 {
			var b strings.Builder
			b.WriteString(`{"requests":[`)
			for j := 0; j < 500; j++ {
				serial++
				fmt.Fprintf(&b, `%s,{"name":"range","value":"%d.5"}]},`, user, serial)
			}
			if w := handlerPost(h, "/v1/request/batch", strings.TrimSuffix(b.String(), ",")+"]}"); w.Code != http.StatusOK {
				t.Fatalf("churn: status %d: %s", w.Code, w.Body)
			}
		}
	}

	fresh := round("cold cache")
	if !strings.Contains(fresh, `gas\u003c2\u003e`) {
		t.Fatalf("the answer does not carry the escaped id: %s", fresh)
	}
	settle("warm cache", fresh)
	hits, _ := srv.csp.CacheStats()

	srv.csp.FlushCache()
	if got := round("after FlushCache"); got != fresh {
		t.Fatalf("after FlushCache:\n got %s\nwant %s", got, fresh)
	}
	settle("after FlushCache", fresh)
	if h2, _ := srv.csp.CacheStats(); h2 != hits {
		t.Fatalf("%d hits after the flush, %d before: the rounds did not repeat", h2, hits)
	}

	// Half a cache of other keys leaves the entry in its shard's current
	// or previous generation, from which a hit promotes it with its
	// rendering; two caches of them evict it, and it is filled again.
	const cacheKeys = 2 * 16 * 1024 // lbs: generations x shards x cacheGenCap
	churn(cacheKeys / 2)
	settle("after half a cache of other keys", fresh)
	churn(2 * cacheKeys)
	_, misses := srv.csp.CacheStats()
	if got := round("after two caches of other keys"); got != fresh {
		t.Fatalf("after two caches of other keys:\n got %s\nwant %s", got, fresh)
	}
	if _, m2 := srv.csp.CacheStats(); m2 != misses+1 {
		t.Fatalf("%d misses in the round after two caches of other keys, want 1: the entry was not evicted", m2-misses)
	}
	settle("after two caches of other keys", fresh)

	// A new catalogue is a new CSP and a new answer.
	moved := strings.Replace(fixturePOIs, `"gas1","x":10,"y":10`, `"gas&1","x":11,"y":10`, 1)
	if w := handlerPost(h, "/v1/pois", moved); w.Code != http.StatusOK {
		t.Fatalf("pois: %d %s", w.Code, w.Body)
	}
	fresh2 := round("after a POI re-install")
	if fresh2 == fresh || !strings.Contains(fresh2, `gas\u00261`) {
		t.Fatalf("after a POI re-install the answer is %s", fresh2)
	}
	settle("after a POI re-install", fresh2)
}
