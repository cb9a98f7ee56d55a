package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"policyanon/internal/geo"
	"policyanon/internal/location"
	"policyanon/internal/motion"
	"policyanon/internal/workload"
)

// TestSyncMovesConcurrentRequests runs /v1/request and /v1/request/batch
// against synchronous /v1/moves (motion off), under an incremental engine
// and a rebuilding one. The readers use the served policy outside the
// server lock, so no move may write the snapshot a served policy is bound
// to; under -race this test is what holds that.
func TestSyncMovesConcurrentRequests(t *testing.T) {
	for _, eng := range []string{"", "hilbert"} {
		t.Run("engine="+eng, func(t *testing.T) {
			h := New().Handler()
			var snap strings.Builder
			fmt.Fprintf(&snap, `{"k":5,"mapSide":64,"engine":%q,"users":[`, eng)
			for i := 0; i < 40; i++ {
				x, y := seedLoc(i)
				if i > 0 {
					snap.WriteByte(',')
				}
				fmt.Fprintf(&snap, `{"id":"u%02d","x":%d,"y":%d}`, i, x, y)
			}
			snap.WriteString("]}")
			if w := handlerPost(h, "/v1/snapshot", snap.String()); w.Code != http.StatusOK {
				t.Fatalf("snapshot: %d %s", w.Code, w.Body)
			}
			if w := handlerPost(h, "/v1/pois", fixturePOIs); w.Code != http.StatusOK {
				t.Fatalf("pois: %d %s", w.Code, w.Body)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for n := 0; !stop.Load(); n++ {
						// The moved users, at their seed spot: a 200 while the
						// policy has them there, a spoofing 400 once they moved.
						i := (r + n) % 8
						x, y := seedLoc(i)
						item := fmt.Sprintf(`{"user":"u%02d","x":%d,"y":%d,"params":[{"name":"cat","value":"gas"}]}`, i, x, y)
						path, body := "/v1/request", item
						if n%2 == 1 {
							path, body = "/v1/request/batch", `{"requests":[`+item+`,`+item+`]}`
						}
						if w := handlerPost(h, path, body); w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
							select {
							case errs <- fmt.Sprintf("%s: status %d: %s", path, w.Code, w.Body):
							default:
							}
						}
					}
				}(r)
			}
			for n := 0; n < 60; n++ {
				var moves strings.Builder
				moves.WriteString(`{"moves":[`)
				for i := 0; i < 8; i++ {
					x, y := seedLoc(i)
					if n%2 == 0 {
						x, y = (x+17)%64, (y+23)%64
					}
					if i > 0 {
						moves.WriteByte(',')
					}
					fmt.Fprintf(&moves, `{"id":"u%02d","x":%d,"y":%d}`, i, x, y)
				}
				moves.WriteString("]}")
				if w := handlerPost(h, "/v1/moves", moves.String()); w.Code != http.StatusOK {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("moves %d: %d %s", n, w.Code, w.Body)
				}
			}
			stop.Store(true)
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// movesSeeds are /v1/moves bodies on both sides of the plain grammar;
// plain says whether scanMoves must take the body itself or leave it to
// encoding/json.
var movesSeeds = []struct {
	body  string
	plain bool
}{
	{`{"moves":[{"id":"u07","x":9,"y":30},{"id":"u08","x":0,"y":-3}]}`, true},
	{`{}`, true},
	{`{"moves":[]}`, true},
	{`{"moves":[{}]}`, true},
	{" {\n\t\"moves\" : [ { \"y\" : 2 , \"id\" : \"a b\" , \"x\" : 1 } , {\"x\":3} ] } \n", true},
	{`{"moves":[{"id":"~","x":-2147483648,"y":2147483647}]}`, true},
	// A negative zero is a float64 the int32 grammar cannot carry.
	{`{"moves":[{"id":"a","x":-0,"y":1}]}`, false},
	{`{"moves":[{"id":"a","x":1.5,"y":1}]}`, false},
	{`{"moves":[{"id":"a","x":1e2,"y":1}]}`, false},
	{`{"moves":[{"id":"a","x":2147483648,"y":1}]}`, false},
	{`{"moves":[{"id":"a","x":NaN,"y":1}]}`, false},
	{`{"moves":[{"id":"a\"b","x":1,"y":1}]}`, false},
	{`{"moves":[{"id":"Zo` + "ë" + `","x":1,"y":1}]}`, false},
	{`{"Moves":[{"ID":"a","X":1,"Y":2}]}`, false},
	{`{"moves":[],"moves":[{"id":"a"}]}`, false},
	{`{"moves":[{"id":"a","x":1,"y":1,"z":0}]}`, false},
	{`{"moves":[],"extra":1}`, false},
	{`{"moves":null}`, false},
	{`{"moves":[null]}`, false},
	{`{"moves":{"id":"a"}}`, false},
	{`null`, false},
	{``, false},
	{`{"moves":[]}x`, false},
	{`{"moves":[{"id":"a","x":1,"y":1},]}`, false},
	{`{"moves":[{"id":"a","x":1,"y":1}]`, false},
	{`{"moves"[]}`, false},
	{`{"moves":[{"id" "a"}]}`, false},
}

// requireMovesOracle fails unless scanMoves declines body or decodes it
// exactly as json.Unmarshal does into both wire types: MovesRequest
// (int32, the synchronous protocol) and StreamMovesRequest (float64, the
// streaming one), the float64s compared bit for bit.
func requireMovesOracle(t *testing.T, body []byte) {
	t.Helper()
	moves, ok := scanMoves(body)
	if !ok {
		return
	}
	var syncReq MovesRequest
	if err := json.Unmarshal(body, &syncReq); err != nil {
		t.Fatalf("%q: scanMoves accepted a body json.Unmarshal rejects into MovesRequest: %v", body, err)
	}
	var stream StreamMovesRequest
	if err := json.Unmarshal(body, &stream); err != nil {
		t.Fatalf("%q: scanMoves accepted a body json.Unmarshal rejects into StreamMovesRequest: %v", body, err)
	}
	if len(moves) != len(syncReq.Moves) || len(moves) != len(stream.Moves) {
		t.Fatalf("%q: %d moves, json gives %d and %d", body, len(moves), len(syncReq.Moves), len(stream.Moves))
	}
	for i, m := range moves {
		if w := syncReq.Moves[i]; m != (location.Record{UserID: w.ID, Loc: geo.Point{X: w.X, Y: w.Y}}) {
			t.Fatalf("%q: move %d is %+v, MovesRequest has %+v", body, i, m, w)
		}
		f := stream.Moves[i]
		if m.UserID != f.ID || math.Float64bits(float64(m.Loc.X)) != math.Float64bits(f.X) || math.Float64bits(float64(m.Loc.Y)) != math.Float64bits(f.Y) {
			t.Fatalf("%q: move %d is %+v, StreamMovesRequest has %+v", body, i, m, f)
		}
	}
}

// FuzzMovesDecode holds the /v1/moves scanner to encoding/json on every
// input, for both protocols' wire types. The seeds are the moves seeds
// and every snapshot seed with its user list renamed to "moves".
func FuzzMovesDecode(f *testing.F) {
	for _, s := range movesSeeds {
		f.Add([]byte(s.body))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(strings.ReplaceAll(s.body, `"users"`, `"moves"`)))
	}
	f.Fuzz(func(t *testing.T, body []byte) { requireMovesOracle(t, body) })
}

// TestScanMovesOwnsOnlyThePlainGrammar pins which side of the grammar
// each moves seed falls on: a canonical body that silently took the slow
// path would be a performance bug no parity test sees.
func TestScanMovesOwnsOnlyThePlainGrammar(t *testing.T) {
	for _, s := range movesSeeds {
		if _, ok := scanMoves([]byte(s.body)); ok != s.plain {
			t.Errorf("scanMoves(%q) ok = %v, want %v", s.body, ok, s.plain)
		}
	}
}

// movesFixture is a motion-enabled server driven handler-direct: a
// generated population at k=50 and two /v1/moves bodies of one full
// batch each, one moving a spread of users one meter and one moving them
// back, posted alternately so every post is a real move.
type movesFixture struct {
	h         http.Handler
	p         *motion.Pipeline
	bodies    [2][]byte
	next      int
	published chan int64 // every published epoch, from OnSwap
}

func newMovesFixture(tb testing.TB, users int, cfg motion.Config) *movesFixture {
	tb.Helper()
	db := workload.Generate(workload.Config{Intersections: users / 10}, 42)
	f := &movesFixture{published: make(chan int64, 1024)}
	cfg.OnSwap = func(s *motion.Snapshot) {
		select {
		case f.published <- s.Epoch:
		default:
		}
	}
	srv := New()
	srv.EnableMotion(cfg)
	f.h = srv.Handler()
	if w := postSnapshot(f.h, canonicalBody(db, 50, workload.DefaultMapSide)); w.Code != http.StatusOK {
		tb.Fatalf("snapshot: %d %s", w.Code, w.Body)
	}
	f.p = srv.MotionPipeline()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.DrainMotion(ctx); err != nil {
			tb.Error(err)
		}
	})
	batch := f.p.Config().MaxBatch
	for side := range f.bodies {
		b := []byte(`{"moves":[`)
		for j := 0; j < batch; j++ {
			r := db.At(j * (db.Len() / batch))
			x := r.Loc.X
			if side == 0 {
				x += 1 - 2*(x/(workload.DefaultMapSide-1)) // one meter in, at either edge
			}
			if j > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, `{"id":%q,"x":%d,"y":%d}`, r.UserID, x, r.Loc.Y)
		}
		f.bodies[side] = append(b, `]}`...)
	}
	return f
}

// body returns the next body to post, alternating.
func (f *movesFixture) body() []byte {
	f.next++
	return f.bodies[(f.next-1)%2]
}

// post sends one /v1/moves body handler-direct and requires a 202.
func (f *movesFixture) post(tb testing.TB, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/moves", bytes.NewReader(body))
	w := httptest.NewRecorder()
	f.h.ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		tb.Fatalf("moves: %d %s", w.Code, w.Body)
	}
}

// awaitEpoch blocks until a snapshot of at least epoch want is published.
func (f *movesFixture) awaitEpoch(tb testing.TB, want int64) {
	timeout := time.After(60 * time.Second)
	for {
		select {
		case e := <-f.published:
			if e >= want {
				return
			}
		case <-timeout:
			tb.Fatalf("epoch %d never published (at %d)", want, f.p.Epoch())
		}
	}
}

// TestMotionPostIsOneApply: a POST of MaxBatch moves is one queue element
// and so one apply, however short the flush deadline. A free-running
// flush ticker fired while such a POST was still being queued and split
// it in two.
func TestMotionPostIsOneApply(t *testing.T) {
	const posts = 50
	f := newMovesFixture(t, 2000, motion.Config{FlushInterval: time.Millisecond})
	for i := 0; i < posts; i++ {
		want := f.p.Epoch() + 1
		f.post(t, f.body())
		f.awaitEpoch(t, want)
	}
	st := f.p.Stats()
	if st.Batches != posts || st.Moves != posts*int64(f.p.Config().MaxBatch) {
		t.Fatalf("%d POSTs of %d moves gave %d applies of %d moves in all, want one apply each",
			posts, f.p.Config().MaxBatch, st.Batches, st.Moves)
	}
	// GET /v1/motion says how long the last batch waited to be applied.
	req := httptest.NewRequest(http.MethodGet, "/v1/motion", nil)
	w := httptest.NewRecorder()
	f.h.ServeHTTP(w, req)
	var doc struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if wait, ok := doc.Stats["lastQueueWaitMs"].(float64); !ok || wait < 0 || wait > st.LastApplyMs+1000 {
		t.Fatalf("lastQueueWaitMs = %v in %s", doc.Stats["lastQueueWaitMs"], w.Body)
	}
}

// BenchmarkMovesBatch is one 512-move POST /v1/moves at the moves_publish
// workload's size (20k users, k=50, default motion config), handler-
// direct: publish is from the POST to the published epoch, decode and
// enqueue are the handler's two steps before the maintenance loop, alone.
// Run with -benchmem.
func BenchmarkMovesBatch(b *testing.B) {
	f := newMovesFixture(b, 20000, motion.Config{})
	b.Run("publish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			want := f.p.Epoch() + 1
			f.post(b, f.body())
			f.awaitEpoch(b, want)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeStreamMoves(f.bodies[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enqueue", func(b *testing.B) {
		var ups [2][]motion.Update
		for i, body := range f.bodies {
			ups[i], _ = decodeStreamMoves(body)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			want := f.p.Epoch() + 1
			f.next++
			if _, err := f.p.EnqueueBatch(ctx, ups[(f.next-1)%2]); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			f.awaitEpoch(b, want)
			b.StartTimer()
		}
	})
}
