package motion

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/workload"
)

// installedState is what the HTTP server hands NewWithState after an
// install: the live DB (a copy-on-write view of the installed one), the
// matrix over it, and the policy extracted onto the installed DB, whose
// survey the install audit has taken.
func installedState(t testing.TB, db *location.DB, k int) (*location.DB, *core.Anonymizer, *lbs.Assignment) {
	t.Helper()
	live := db.CloneWithMoves(nil)
	anon, err := core.NewAnonymizer(live, testBounds(), core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := anon.Matrix().Policy(db)
	if err != nil {
		t.Fatal(err)
	}
	attacker.SurveyOf(policy)
	return live, anon, policy
}

// TestNewWithStateAdoptionAllocs: adopting an installed policy allocates
// the same at 10k and at 100k users. The pipeline publishes the policy
// itself, and its gate reads the survey the install audit took, so no
// step copies the snapshot or re-surveys its cloaks.
func TestNewWithStateAdoptionAllocs(t *testing.T) {
	bytesAt := func(users int) uint64 {
		db := testDB(t, users, 3)
		live, anon, policy := installedState(t, db, 50)
		const runs = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			p, err := NewWithState(live, testBounds(), Config{K: 50, QueueCapacity: 64}, anon, policy)
			if err != nil {
				t.Fatal(err)
			}
			if p.Snapshot().Policy != policy {
				t.Fatal("epoch 1 is not the adopted policy")
			}
			closePipeline(t, p)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesAt(10_002), bytesAt(100_002) // testDB places six users per intersection
	t.Logf("bytes per adoption: %d at 10k users, %d at 100k", small, large)
	// The gate's own checks allocate per cloaking group (|D|/k of them), a
	// few bytes each; a copy of the 100k snapshot is 2.4 MB of records
	// before its user index.
	if budget := small + 64<<10; large > budget {
		t.Fatalf("adopting 100k users allocates %d B, 10k %d B: grows with |D| (budget %d B)", large, small, budget)
	}
}

// frozen is one published snapshot beside a deep copy of its records as
// they stood when it was published.
type frozen struct {
	snap *Snapshot
	recs []location.Record
}

// TestPublishedSnapshotsNeverChange: under churn, no record of any
// published snapshot ever changes, whatever path produced it: a matrix
// adopted from an install, a policy adopted over the DB the pipeline
// takes (a checkpoint restore) on both strategies, every batch rebuilt,
// and a non-incremental engine. A reader walks every published snapshot
// while batches apply, so -race reports a write to shared storage.
func TestPublishedSnapshotsNeverChange(t *testing.T) {
	const users, k = 240, 20
	adoptOwn := func(t *testing.T, db *location.DB) (*location.DB, *core.Anonymizer, *lbs.Assignment) {
		eng, err := engine.Get(engine.DefaultName)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := eng.Anonymize(context.Background(), db, testBounds(), engine.Params{K: k})
		if err != nil {
			t.Fatal(err)
		}
		return db, nil, policy
	}
	cases := []struct {
		name  string
		cfg   Config
		state func(*testing.T, *location.DB) (*location.DB, *core.Anonymizer, *lbs.Assignment)
	}{
		{"installed", Config{}, func(t *testing.T, db *location.DB) (*location.DB, *core.Anonymizer, *lbs.Assignment) {
			return installedState(t, db, k)
		}},
		{"restored", Config{}, adoptOwn},
		{"restored-incremental", Config{Strategy: StrategyIncremental}, adoptOwn},
		{"rebuild", Config{Strategy: StrategyRebuild}, nil},
		{"hilbert", Config{Engine: "hilbert"}, nil},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := testDB(t, users, int64(40+i))
			live, anon, policy := db, (*core.Anonymizer)(nil), (*lbs.Assignment)(nil)
			if tc.state != nil {
				live, anon, policy = tc.state(t, db)
			}
			var mu sync.Mutex
			var published []frozen
			cfg := tc.cfg
			cfg.K, cfg.MaxBatch, cfg.FlushInterval, cfg.MaxMoveMeters = k, 16, time.Millisecond, -1
			cfg.OnSwap = func(s *Snapshot) {
				recs := slices.Clone(s.Policy.DB().Records())
				mu.Lock()
				published = append(published, frozen{s, recs})
				mu.Unlock()
			}
			p, err := NewWithState(live, testBounds(), cfg, anon, policy)
			if err != nil {
				t.Fatal(err)
			}
			if policy != nil && p.Snapshot().Policy != policy {
				t.Fatal("epoch 1 is not the adopted policy")
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
						sdb := f.snap.Policy.DB()
						for j := 0; j < sdb.Len(); j++ {
							_ = sdb.At(j)
						}
					}
				}
			}()
			stream := workload.NewMoveStream(int64(50+i), db, 150, testSide)
			for pass := 0; pass < 4; pass++ {
				// Wait for each pass to publish, so applies interleave
				// with the reader's walks.
				before := p.Epoch()
				enqueueMoves(t, p, stream, users/4)
				for deadline := time.Now().Add(30 * time.Second); p.Epoch() == before; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("no epoch published")
					}
				}
			}
			closePipeline(t, p)
			close(stop)
			<-done
			if p.Epoch() < 3 {
				t.Fatalf("only %d epochs published", p.Epoch())
			}
			for _, f := range published {
				sdb := f.snap.Policy.DB()
				for j, want := range f.recs {
					if got := sdb.At(j); got != want {
						t.Fatalf("epoch %d record %d changed after publication: %+v, was %+v", f.snap.Epoch, j, got, want)
					}
				}
			}
		})
	}
}

// TestQueueDepthGaugeCountsUpdates: the motion_queue_depth gauge counts
// queued updates, as Stats.QueueDepth does, at every site that sets it —
// the apply's end included, which the Checkpoint callback follows.
func TestQueueDepthGaugeCountsUpdates(t *testing.T) {
	db := testDB(t, 120, 9)
	hold, held := make(chan struct{}), make(chan struct{}, 1)
	var swaps int
	var mismatches []string
	var p *Pipeline
	cfg := Config{
		K:               10,
		FlushInterval:   time.Millisecond,
		MaxMoveMeters:   -1,
		CheckpointEvery: 1,
		OnSwap: func(*Snapshot) {
			// Park the loop in the first batch's swap while the test
			// queues two multi-update elements behind it.
			if swaps++; swaps == 2 {
				held <- struct{}{}
				<-hold
			}
		},
		Checkpoint: func(s *Snapshot) error {
			if gauge, depth := p.queueDepth.Value(), p.Stats().QueueDepth; gauge != int64(depth) {
				mismatches = append(mismatches, fmt.Sprintf("epoch %d: gauge %d, Stats.QueueDepth %d", s.Epoch, gauge, depth))
			}
			return nil
		},
	}
	p, err := New(db, testBounds(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.NewMoveStream(10, db, 150, testSide)
	enqueueMoves(t, p, stream, 1)
	<-held
	for e := 0; e < 2; e++ {
		us := make([]Update, 3)
		for j := range us {
			mv := stream.Next()
			us[j] = Update{UserID: stream.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)}
		}
		if n, err := p.EnqueueBatch(context.Background(), us); err != nil || n != 3 {
			t.Fatalf("enqueue element %d: %d queued, %v", e, n, err)
		}
	}
	close(hold)
	closePipeline(t, p)
	if len(mismatches) > 0 {
		t.Fatalf("queue-depth gauge in another unit than Stats: %v", mismatches)
	}
	if st := p.Stats(); st.Checkpoints < 2 {
		t.Fatalf("want a checkpoint after the held batch and after the queued ones: %+v", st)
	}
}
