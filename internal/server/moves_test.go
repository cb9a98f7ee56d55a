package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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
