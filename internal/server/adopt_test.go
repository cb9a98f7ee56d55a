package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/location"
	"policyanon/internal/motion"
)

// TestMotionAdoptsInstalledPolicy: the pipeline started for an install
// publishes the installed assignment itself as epoch 1 — the same pointer,
// so the publish gate reads the survey the install audit took. The test
// runs the tail of handleSnapshot (startMotionLocked) on a server whose
// install has run, so it can hold the installed assignment first.
func TestMotionAdoptsInstalledPolicy(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	installSnapshot(t, ts.URL, 5)
	srv.mu.RLock()
	installed := srv.policy
	srv.mu.RUnlock()
	survey := attacker.SurveyOf(installed)

	srv.EnableMotion(motion.Config{})
	srv.mu.Lock()
	err := srv.startMotionLocked()
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.DrainMotion(context.Background()) })
	snap := srv.MotionPipeline().Snapshot()
	if snap.Epoch != 1 || snap.Policy != installed {
		t.Fatalf("epoch %d publishes %p, want the installed assignment %p", snap.Epoch, snap.Policy, installed)
	}
	if got := attacker.SurveyOf(snap.Policy); got != survey {
		t.Fatal("epoch 1 has a survey of its own, not the install audit's")
	}
	srv.mu.RLock()
	serving := srv.policy
	srv.mu.RUnlock()
	if serving != installed {
		t.Fatal("the server stopped serving the installed assignment at epoch 1")
	}
}

// TestMotionRestoreKeepsPublishedRecords: after a checkpoint restore, the
// pipeline's first snapshot is the restored policy over the restored DB,
// which the pipeline then maintains. No record of that snapshot, or of any
// later one, changes while moves stream in; a reader walks every published
// snapshot meanwhile, so -race reports a write to shared storage.
func TestMotionRestoreKeepsPublishedRecords(t *testing.T) {
	src := New()
	srcTS := httptest.NewServer(src.Handler())
	t.Cleanup(srcTS.Close)
	installSnapshot(t, srcTS.URL, 5)
	var blob bytes.Buffer
	if err := src.CheckpointTo(&blob); err != nil {
		t.Fatal(err)
	}

	type frozen struct {
		epoch int64
		db    *location.DB
		recs  []location.Record
	}
	var mu sync.Mutex
	var published []frozen
	srv, base := newMotionServer(t, motion.Config{
		MaxBatch:      8,
		FlushInterval: time.Millisecond,
		MaxMoveMeters: -1,
		OnSwap: func(s *motion.Snapshot) {
			db := s.Policy.DB()
			mu.Lock()
			published = append(published, frozen{s.Epoch, db, slices.Clone(db.Records())})
			mu.Unlock()
		},
	})
	if err := srv.RestoreFrom(&blob); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			seen := slices.Clone(published)
			mu.Unlock()
			for _, f := range seen {
				for j := 0; j < f.db.Len(); j++ {
					_ = f.db.At(j)
				}
			}
		}
	}()
	for round := 0; round < 6; round++ {
		moves := make([]MoveUpdateJSON, 10)
		for i := range moves {
			moves[i] = MoveUpdateJSON{ID: fmt.Sprintf("u%02d", (round*7+i*3)%40), X: float64((round*11 + i*5) % 64), Y: float64((round*3 + i*13) % 64)}
		}
		resp, body := post(t, base+"/v1/moves", StreamMovesRequest{Moves: moves})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: %d %v", round, resp.StatusCode, body)
		}
		waitEpoch(t, base, float64(round+2))
	}
	if err := srv.DrainMotion(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	for _, f := range published {
		for j, want := range f.recs {
			if got := f.db.At(j); got != want {
				t.Fatalf("epoch %d record %d changed after publication: %+v, was %+v", f.epoch, j, got, want)
			}
		}
	}
}
