package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"policyanon/internal/motion"
)

// newMotionServer builds a server with streaming ingest armed; the
// pipeline itself starts when the test installs a snapshot.
func newMotionServer(t *testing.T, cfg motion.Config) (*Server, string) {
	t.Helper()
	srv := New()
	srv.EnableMotion(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// seedLoc is the location installSnapshot gives user i.
func seedLoc(i int) (int32, int32) {
	return int32((i * 13) % 64), int32((i * 29) % 64)
}

// motionStats polls GET /v1/motion and returns the stats object.
func motionStats(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, body := get(t, base+"/v1/motion")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("motion: %d %v", resp.StatusCode, body)
	}
	if body["enabled"] != true {
		t.Fatalf("motion not enabled: %v", body)
	}
	return body["stats"].(map[string]any)
}

// waitEpoch blocks until the pipeline's published epoch reaches at
// least want (the queue may still hold unapplied updates).
func waitEpoch(t *testing.T, base string, want float64) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := motionStats(t, base)
		if st["epoch"].(float64) >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch %v never reached %v", st["epoch"], want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMotionStreamingStatuses(t *testing.T) {
	srv, base := newMotionServer(t, motion.Config{
		MaxBatch:      8,
		FlushInterval: time.Millisecond,
		MaxMoveMeters: 10,
	})
	installSnapshot(t, base, 5)
	if srv.MotionPipeline() == nil {
		t.Fatal("pipeline not started by snapshot install")
	}

	// Valid bounded move → 202 Accepted.
	x, y := seedLoc(7)
	resp, body := post(t, base+"/v1/moves", StreamMovesRequest{Moves: []MoveUpdateJSON{
		{ID: "u07", X: float64(x + 2), Y: float64(y + 1)},
	}})
	if resp.StatusCode != http.StatusAccepted || body["queued"].(float64) != 1 {
		t.Fatalf("valid move: %d %v", resp.StatusCode, body)
	}

	// Boundary rejections → 400 with a machine-readable reason.
	cases := []struct {
		name   string
		move   MoveUpdateJSON
		reason string
	}{
		{"unknown user", MoveUpdateJSON{ID: "ghost", X: 1, Y: 1}, motion.ReasonUnknownUser},
		{"out of bounds", MoveUpdateJSON{ID: "u03", X: 999, Y: 1}, motion.ReasonOutOfBounds},
		{"negative", MoveUpdateJSON{ID: "u03", X: -4, Y: 1}, motion.ReasonOutOfBounds},
		{"motion bound", func() MoveUpdateJSON {
			ux, uy := seedLoc(5) // (1,17): +50 stays in bounds but breaks the 10 m bound
			return MoveUpdateJSON{ID: "u05", X: float64(ux) + 50, Y: float64(uy)}
		}(), motion.ReasonSpeed},
	}
	for _, tc := range cases {
		resp, body := post(t, base+"/v1/moves", StreamMovesRequest{Moves: []MoveUpdateJSON{tc.move}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %v", tc.name, resp.StatusCode, body)
		}
		if body["reason"] != tc.reason {
			t.Fatalf("%s: reason %v, want %s", tc.name, body["reason"], tc.reason)
		}
	}

	// Non-finite coordinates cannot survive JSON decoding; the decode
	// boundary itself rejects them before the pipeline is consulted.
	raw, err := http.Post(base+"/v1/moves", "application/json",
		bytes.NewReader([]byte(`{"moves":[{"id":"u07","x":NaN,"y":1}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN literal: %d", raw.StatusCode)
	}

	// The applied move is visible to the serving path: epoch advances and
	// the cloak covers the new position.
	st := waitEpoch(t, base, 2)
	if st["rejected"].(float64) != 4 {
		t.Fatalf("rejected = %v, want 4", st["rejected"])
	}
	// The stats document says where the batch's time went.
	if st["lastVerifyMs"].(float64) <= 0 || st["lastVerifyMs"].(float64) > st["lastApplyMs"].(float64) {
		t.Fatalf("last verify took %v ms of a %v ms apply", st["lastVerifyMs"], st["lastApplyMs"])
	}
	resp, body = get(t, base+"/v1/cloak?user=u07")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cloak after move: %d %v", resp.StatusCode, body)
	}
	cloak := body["cloak"].(map[string]any)
	if cloak["minX"].(float64) > float64(x+2) || cloak["maxX"].(float64) < float64(x+2) {
		t.Fatalf("cloak %v does not cover moved location", cloak)
	}
}

func TestMotionBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	var swaps atomic.Int64
	_, base := newMotionServer(t, motion.Config{
		QueueCapacity: 4,
		MaxBatch:      1,
		FlushInterval: time.Hour,
		Policy:        motion.Drop,
		MaxMoveMeters: -1,
		OnSwap: func(*motion.Snapshot) {
			if swaps.Add(1) > 1 { // call 1 is the initial publish
				<-gate
			}
		},
	})
	t.Cleanup(func() { close(gate) })
	installSnapshot(t, base, 5)

	// First move: consumed by the loop, which then parks inside the swap
	// callback — the queue is now empty and nothing drains it.
	resp, body := post(t, base+"/v1/moves", StreamMovesRequest{Moves: []MoveUpdateJSON{
		{ID: "u00", X: 5, Y: 5},
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first move: %d %v", resp.StatusCode, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for motionStats(t, base)["queueDepth"].(float64) != 0 || swaps.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("loop never consumed the first move")
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the queue to exact capacity, then one more → 429.
	moves := make([]MoveUpdateJSON, 4)
	for i := range moves {
		moves[i] = MoveUpdateJSON{ID: fmt.Sprintf("u%02d", i+1), X: 6, Y: 6}
	}
	resp, body = post(t, base+"/v1/moves", StreamMovesRequest{Moves: moves})
	if resp.StatusCode != http.StatusAccepted || body["queued"].(float64) != 4 {
		t.Fatalf("fill: %d %v", resp.StatusCode, body)
	}
	resp, body = post(t, base+"/v1/moves", StreamMovesRequest{Moves: []MoveUpdateJSON{
		{ID: "u09", X: 7, Y: 7},
	}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d %v", resp.StatusCode, body)
	}
	if body["queued"].(float64) != 0 {
		t.Fatalf("overflow queued = %v", body["queued"])
	}
	if st := motionStats(t, base); st["dropped"].(float64) != 1 {
		t.Fatalf("dropped = %v, want 1", st["dropped"])
	}
}

func TestMotionDrainAndShutdownOrdering(t *testing.T) {
	var checkpoints atomic.Int64
	srv, base := newMotionServer(t, motion.Config{
		MaxBatch:      64,
		FlushInterval: time.Hour, // only the drain flushes
		MaxMoveMeters: -1,
		Checkpoint: func(*motion.Snapshot) error {
			checkpoints.Add(1)
			return nil
		},
	})
	installSnapshot(t, base, 5)

	resp, body := post(t, base+"/v1/moves", StreamMovesRequest{Moves: []MoveUpdateJSON{
		{ID: "u00", X: 40, Y: 40},
		{ID: "u01", X: 41, Y: 41},
	}})
	if resp.StatusCode != http.StatusAccepted || body["queued"].(float64) != 2 {
		t.Fatalf("moves: %d %v", resp.StatusCode, body)
	}

	// Drain: the queued batch must be applied, then checkpointed, even
	// though no flush trigger ever fired.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.DrainMotion(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := checkpoints.Load(); n != 1 {
		t.Fatalf("final checkpoints = %d, want 1", n)
	}
	p := srv.MotionPipeline()
	if st := p.Stats(); st.Moves != 2 || !st.Closed {
		t.Fatalf("post-drain stats: %+v", st)
	}

	// The drained state is what CheckpointTo persists: restore it into a
	// fresh server and the moved position must be there.
	var buf bytes.Buffer
	if err := srv.CheckpointTo(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	restored := New()
	if err := restored.RestoreFrom(&buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	cloak, err := restored.policy.CloakOf("u00")
	if err != nil {
		t.Fatal(err)
	}
	if cloak.MinX > 40 || cloak.MaxX < 40 || cloak.MinY > 40 || cloak.MaxY < 40 {
		t.Fatalf("restored cloak %+v does not cover drained move", cloak)
	}

	// After the drain the ingest boundary answers 503.
	resp, body = post(t, base+"/v1/moves", StreamMovesRequest{Moves: []MoveUpdateJSON{
		{ID: "u02", X: 9, Y: 9},
	}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain move: %d %v", resp.StatusCode, body)
	}
	// Draining again is a no-op.
	if err := srv.DrainMotion(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestMotionConcurrentRequests is the ISSUE acceptance check at the HTTP
// layer: /v1/request keeps answering — with consistent cloaks — while
// the maintenance loop applies streamed batches. Readers query users
// u00–u19 at their fixed seed locations; the churn moves only u20–u39,
// so a reader's reported location always stays inside its (k-anonymous,
// hence covering) cloak no matter which snapshot epoch serves it.
func TestMotionConcurrentRequests(t *testing.T) {
	_, base := newMotionServer(t, motion.Config{
		MaxBatch:      16,
		FlushInterval: time.Millisecond,
	})
	installSnapshot(t, base, 5)
	installPOIs(t, base)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, failures atomic.Int64
	var firstErr atomic.Value
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := (i*3 + r) % 20
				x, y := seedLoc(u)
				payload, _ := json.Marshal(ServiceRequestJSON{
					User: fmt.Sprintf("u%02d", u), X: x, Y: y,
				})
				resp, err := http.Post(base+"/v1/request", "application/json", bytes.NewReader(payload))
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("request: %v", err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					var out map[string]any
					_ = json.NewDecoder(resp.Body).Decode(&out)
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("request %d: %v", resp.StatusCode, out))
				}
				resp.Body.Close()
				reads.Add(1)
			}
		}(r)
	}

	// Churn u20–u39 between two fixed in-bounds positions, waiting for
	// each round's batch to publish so applies interleave with reads.
	var epoch float64 = 1
	for round := 0; round < 8; round++ {
		moves := make([]MoveUpdateJSON, 20)
		for i := range moves {
			x, y := seedLoc(i + 20)
			off := float64((round % 2) * 3)
			moves[i] = MoveUpdateJSON{
				ID: fmt.Sprintf("u%02d", i+20),
				X:  float64(x%60) + off, Y: float64(y%60) + off,
			}
		}
		resp, body := post(t, base+"/v1/moves", StreamMovesRequest{Moves: moves})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: %d %v", round, resp.StatusCode, body)
		}
		st := waitEpoch(t, base, epoch+1)
		epoch = st["epoch"].(float64)
	}
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests during applies; first: %v", n, firstErr.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	// The last round's tail batch may still be in flight; wait it out.
	deadline := time.Now().Add(30 * time.Second)
	st := motionStats(t, base)
	for st["moves"].(float64) != 160 {
		if time.Now().After(deadline) {
			t.Fatalf("churn accounting: %v", st)
		}
		time.Sleep(time.Millisecond)
		st = motionStats(t, base)
	}
	if st["batches"].(float64) == 0 {
		t.Fatalf("churn accounting: %v", st)
	}
	// Serving stats reflect pull-based adoption of the live pipeline.
	_, stats := get(t, base+"/v1/stats")
	if stats["movesApplied"].(float64) != 160 {
		t.Fatalf("adopted movesApplied = %v, want 160", stats["movesApplied"])
	}
}

// TestLegacyMovesBoundsMetric: with motion disabled the synchronous
// /v1/moves path still validates bounds at the server boundary and
// accounts rejections under a distinct metric.
func TestLegacyMovesBoundsMetric(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	installSnapshot(t, ts.URL, 5)
	resp, body := post(t, ts.URL+"/v1/moves", MovesRequest{Moves: []UserJSON{{ID: "u01", X: 999, Y: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-bounds move: %d %v", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics.Bytes(), []byte(`"moves_rejected:bounds":1`)) {
		t.Fatalf("bounds rejection metric missing from /v1/metrics:\n%s", metrics.String())
	}
}
