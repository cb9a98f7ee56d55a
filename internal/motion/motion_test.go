package motion

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/tree"
	"policyanon/internal/verify"
	"policyanon/internal/workload"
)

const testSide int32 = 1 << 12

// testDB builds a small skewed population for pipeline tests.
func testDB(t *testing.T, users int, seed int64) *location.DB {
	t.Helper()
	per := 6
	db := workload.Generate(workload.Config{
		MapSide:              testSide,
		Intersections:        users / per,
		UsersPerIntersection: per,
	}, seed)
	if db.Len() != users {
		t.Fatalf("testDB: got %d users, want %d", db.Len(), users)
	}
	return db
}

func testBounds() geo.Rect { return workload.MapBounds(testSide) }

// enqueueMoves feeds n stream moves through the pipeline, addressing
// users by id like the HTTP boundary does.
func enqueueMoves(t *testing.T, p *Pipeline, s *workload.MoveStream, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		mv := s.Next()
		u := Update{UserID: s.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)}
		if err := p.Enqueue(ctx, u); err != nil {
			t.Fatalf("enqueue move %d: %v", i, err)
		}
	}
}

func closePipeline(t *testing.T, p *Pipeline) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// checkReportAgainstScans holds the report the publish gate's verification
// gives for one published policy to brute force: every minimum recomputed
// by attacker.Candidates scans, and the k PREs of Definition 6 shown to
// exist (every issued cloak has k distinct policy-aware candidates).
func checkReportAgainstScans(t *testing.T, epoch int64, pol *lbs.Assignment, k int) {
	t.Helper()
	rep := verify.Policy(pol, k)
	if !rep.OK() {
		t.Fatalf("epoch %d: published policy fails verification: %v", epoch, rep.Problems)
	}
	cloaks := make(map[geo.Rect]bool)
	for i := 0; i < pol.Len(); i++ {
		cloaks[pol.CloakAt(i)] = true
	}
	minAware, minUnaware := pol.Len()+1, pol.Len()+1
	for cloak := range cloaks {
		aware := attacker.Candidates(pol, cloak, attacker.PolicyAware)
		minAware = min(minAware, len(aware))
		minUnaware = min(minUnaware, len(attacker.Candidates(pol, cloak, attacker.PolicyUnaware)))
		if len(aware) < k {
			t.Fatalf("epoch %d: cloak %v admits only %d PREs, want %d", epoch, cloak, len(aware), k)
		}
	}
	if rep.MinAware != minAware || rep.MinUnaware != minUnaware {
		t.Fatalf("epoch %d: report minima %d/%d, scans give %d/%d", epoch, rep.MinAware, rep.MinUnaware, minAware, minUnaware)
	}
}

// TestParityIncrementalVsRebuild is the golden parity check of the
// incremental maintenance (acceptance criterion): after a randomized
// churn sequence flows through the pipeline incrementally, the published
// cloaks must be byte-identical to a from-scratch rebuild over the same
// final positions — across two tree kinds, and clean under -race. Every
// epoch published on the way is re-verified against brute-force scans.
func TestParityIncrementalVsRebuild(t *testing.T) {
	kinds := map[string]tree.Kind{"binary": tree.Binary, "quad": tree.Quad}
	for name, kind := range kinds {
		t.Run(name, func(t *testing.T) {
			const users, k = 300, 20
			db := testDB(t, users, 7)
			var mu sync.Mutex
			var published []*Snapshot
			p, err := New(db, testBounds(), Config{
				K:             k,
				TreeKind:      kind,
				Strategy:      StrategyIncremental,
				MaxBatch:      64,
				FlushInterval: time.Millisecond,
				MaxMoveMeters: -1, // parity exercises maintenance, not validation
				OnSwap: func(s *Snapshot) {
					mu.Lock()
					published = append(published, s)
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Three full passes over the population: every user moves
			// three times, coalescing and multi-batch maintenance both
			// get exercised.
			stream := workload.NewMoveStream(11, db, 300, testSide)
			enqueueMoves(t, p, stream, 3*users)
			closePipeline(t, p)

			st := p.Stats()
			if st.Rebuilds != 0 || st.Incremental == 0 {
				t.Fatalf("want purely incremental applies, got %d incremental / %d rebuilds", st.Incremental, st.Rebuilds)
			}
			snap := p.Snapshot()
			if snap.Epoch < 2 {
				t.Fatalf("epoch did not advance: %d", snap.Epoch)
			}
			if st.LastVerifyMs <= 0 {
				t.Fatalf("stats say the last publish gate ran in %v ms, want a timed verify", st.LastVerifyMs)
			}
			mu.Lock()
			defer mu.Unlock()
			if int64(len(published)) != snap.Epoch {
				t.Fatalf("observed %d swaps for %d epochs", len(published), snap.Epoch)
			}
			for _, s := range published {
				checkReportAgainstScans(t, s.Epoch, s.Policy, k)
			}

			// From-scratch rebuild over the exact final positions.
			fresh, err := core.NewAnonymizer(snap.Policy.DB().Clone(), testBounds(), core.AnonymizerOptions{K: k, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Policy()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < users; i++ {
				if got, w := snap.Policy.CloakAt(i), want.CloakAt(i); got != w {
					t.Fatalf("cloak %d diverged: incremental %v, rebuild %v", i, got, w)
				}
			}
		})
	}
}

// TestRebuildFallback checks the capability/threshold dispatch: a batch
// moving more than RebuildThreshold of the population must fall back to a
// full rebuild under StrategyAuto, and a non-Incremental engine must
// always rebuild.
func TestRebuildFallback(t *testing.T) {
	const users, k = 240, 20
	t.Run("churn-threshold", func(t *testing.T) {
		db := testDB(t, users, 3)
		p, err := New(db, testBounds(), Config{
			K:                k,
			MaxBatch:         users, // one batch swallows the whole burst
			FlushInterval:    time.Hour,
			RebuildThreshold: 0.10,
			MaxMoveMeters:    -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := workload.NewMoveStream(5, db, 300, testSide)
		enqueueMoves(t, p, stream, users/2) // 50% churn >> 10% threshold
		closePipeline(t, p)
		st := p.Stats()
		if st.Rebuilds == 0 {
			t.Fatalf("50%% churn batch should have rebuilt: %+v", st)
		}
	})
	t.Run("non-incremental-engine", func(t *testing.T) {
		db := testDB(t, users, 4)
		p, err := New(db, testBounds(), Config{
			K:             k,
			Engine:        "hilbert", // policy-aware but not Incremental
			MaxBatch:      16,
			FlushInterval: time.Millisecond,
			MaxMoveMeters: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		stream := workload.NewMoveStream(6, db, 150, testSide)
		enqueueMoves(t, p, stream, 64)
		closePipeline(t, p)
		st := p.Stats()
		if st.Incremental != 0 || st.Rebuilds == 0 {
			t.Fatalf("non-incremental engine must always rebuild: %+v", st)
		}
	})
}

// blockedPipeline builds a pipeline whose maintenance loop is parked
// inside OnSwap after consuming exactly one update, so tests can fill the
// queue deterministically. Returns the release function.
func blockedPipeline(t *testing.T, db *location.DB, cfg Config) (*Pipeline, func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	var swaps atomic.Int64
	cfg.K = 10
	cfg.MaxBatch = 1
	cfg.FlushInterval = time.Hour
	cfg.MaxMoveMeters = -1
	cfg.OnSwap = func(*Snapshot) {
		// The initial publish happens on the constructor goroutine;
		// every later swap parks the maintenance loop on the gate.
		if swaps.Add(1) > 1 {
			<-gate
		}
	}
	p, err := New(db, testBounds(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		closePipeline(t, p)
	})
	return p, release
}

// fillQueue enqueues one consumed update, waits until the loop is parked,
// then fills the queue to capacity.
func fillQueue(t *testing.T, p *Pipeline, s *workload.MoveStream) {
	t.Helper()
	enqueueMoves(t, p, s, 1)
	// Wait for the loop to consume it (its token back, so the queue is
	// empty) before measuring capacity: the channel hands an element to a
	// waiting loop directly, so the channel's own length says nothing.
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintenance loop never consumed the first update")
		}
		time.Sleep(time.Millisecond)
	}
	enqueueMoves(t, p, s, p.cfg.QueueCapacity)
}

// TestBackpressureDrop asserts the Drop policy sheds load with
// ErrQueueFull instead of growing the queue without bound.
func TestBackpressureDrop(t *testing.T) {
	db := testDB(t, 120, 8)
	p, release := blockedPipeline(t, db, Config{QueueCapacity: 8, Policy: Drop})
	stream := workload.NewMoveStream(9, db, 150, testSide)
	fillQueue(t, p, stream)

	mv := stream.Next()
	err := p.Enqueue(context.Background(), Update{UserID: stream.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue under Drop: got %v, want ErrQueueFull", err)
	}
	if st := p.Stats(); st.Dropped != 1 || st.QueueDepth != st.QueueCapacity {
		t.Fatalf("drop accounting: %+v", st)
	}
	release()
}

// TestBackpressureBlock asserts the Block policy makes Enqueue wait for
// queue space, bounded by the caller's context.
func TestBackpressureBlock(t *testing.T) {
	db := testDB(t, 120, 8)
	p, release := blockedPipeline(t, db, Config{QueueCapacity: 8, Policy: Block})
	stream := workload.NewMoveStream(9, db, 150, testSide)
	fillQueue(t, p, stream)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	mv := stream.Next()
	err := p.Enqueue(ctx, Update{UserID: stream.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full queue under Block: got %v, want DeadlineExceeded", err)
	}
	if st := p.Stats(); st.Dropped != 0 {
		t.Fatalf("Block must not count drops: %+v", st)
	}
	// Released, the loop drains and a bounded Enqueue succeeds again.
	release()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	mv = stream.Next()
	if err := p.Enqueue(ctx2, Update{UserID: stream.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)}); err != nil {
		t.Fatalf("enqueue after release: %v", err)
	}
}

// TestDrainNoBatchLost is the graceful-shutdown guarantee: everything
// accepted before Close must be applied and visible in the final
// snapshot, and the final checkpoint must see it too.
func TestDrainNoBatchLost(t *testing.T) {
	const users = 150
	db := testDB(t, users, 12)
	var checkpointed atomic.Pointer[Snapshot]
	p, err := New(db, testBounds(), Config{
		K:             10,
		MaxBatch:      32,
		FlushInterval: time.Hour, // flushes driven by size + drain only
		MaxMoveMeters: -1,
		Checkpoint: func(s *Snapshot) error {
			checkpointed.Store(s)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One move per distinct user: coalescing is the identity, so every
	// accepted update must survive as exactly one applied move.
	stream := workload.NewMoveStream(13, db, 150, testSide)
	moves := make([]workload.Move, users)
	ctx := context.Background()
	for i := range moves {
		moves[i] = stream.Next()
		u := Update{UserID: stream.UserID(moves[i].Index), X: float64(moves[i].To.X), Y: float64(moves[i].To.Y)}
		if err := p.Enqueue(ctx, u); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	closePipeline(t, p)

	st := p.Stats()
	if st.Moves != users {
		t.Fatalf("drain lost moves: applied %d of %d accepted", st.Moves, users)
	}
	final := p.Snapshot().Policy.DB()
	for _, mv := range moves {
		if got := final.At(mv.Index).Loc; got != mv.To {
			t.Fatalf("user %d: final snapshot at %v, move said %v", mv.Index, got, mv.To)
		}
	}
	ck := checkpointed.Load()
	if ck == nil {
		t.Fatal("drain did not write a final checkpoint")
	}
	if ck.Epoch != p.Epoch() {
		t.Fatalf("final checkpoint at epoch %d, pipeline at %d", ck.Epoch, p.Epoch())
	}
	// Closed pipeline rejects further traffic.
	if err := p.Enqueue(ctx, Update{UserID: db.At(0).UserID, X: 1, Y: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: got %v, want ErrClosed", err)
	}
	// Close is idempotent.
	closePipeline(t, p)
}

// TestValidation covers the ingest-boundary rejections: non-finite and
// out-of-bounds coordinates, unknown users, and bounded-motion (speed)
// violations, each with its distinct reason.
func TestValidation(t *testing.T) {
	db := testDB(t, 120, 14)
	p, err := New(db, testBounds(), Config{K: 10, MaxMoveMeters: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p)
	// Pick a user comfortably interior to the map so the speed case
	// cannot accidentally trip the bounds check instead.
	interior := -1
	for i := 0; i < db.Len(); i++ {
		l := db.At(i).Loc
		if l.X > 300 && l.Y > 300 && l.X < testSide-300 && l.Y < testSide-300 {
			interior = i
			break
		}
	}
	if interior < 0 {
		t.Fatal("no interior user in the test population")
	}
	known := db.At(interior).UserID
	loc := db.At(interior).Loc
	cases := []struct {
		name   string
		u      Update
		reason string
	}{
		{"nan", Update{UserID: known, X: math.NaN(), Y: 10}, ReasonNonFinite},
		{"inf", Update{UserID: known, X: 10, Y: math.Inf(1)}, ReasonNonFinite},
		{"negative", Update{UserID: known, X: -5, Y: 10}, ReasonOutOfBounds},
		{"past-edge", Update{UserID: known, X: float64(testSide), Y: 10}, ReasonOutOfBounds},
		{"unknown-user", Update{UserID: "nobody", X: 10, Y: 10}, ReasonUnknownUser},
		{"speed", Update{UserID: known, X: float64(loc.X), Y: float64(loc.Y) + 201}, ReasonSpeed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := p.Enqueue(context.Background(), tc.u)
			var rej *RejectError
			if !errors.As(err, &rej) {
				t.Fatalf("got %v, want RejectError", err)
			}
			if rej.Reason != tc.reason {
				t.Fatalf("reason = %q, want %q", rej.Reason, tc.reason)
			}
		})
	}
	if st := p.Stats(); st.Rejected != int64(len(cases)) || st.Enqueued != 0 {
		t.Fatalf("rejection accounting: %+v", st)
	}
	// A bounded move from the published location is accepted.
	ok := Update{UserID: known, X: float64(loc.X), Y: float64(loc.Y) + 150}
	if err := p.Enqueue(context.Background(), ok); err != nil {
		t.Fatalf("bounded move rejected: %v", err)
	}
}

// TestCheckpointCadence asserts periodic persistence fires every
// CheckpointEvery batches plus once at drain.
func TestCheckpointCadence(t *testing.T) {
	const users = 120
	db := testDB(t, users, 15)
	var calls atomic.Int64
	p, err := New(db, testBounds(), Config{
		K:               10,
		MaxBatch:        10,
		FlushInterval:   time.Hour,
		MaxMoveMeters:   -1,
		CheckpointEvery: 2,
		Checkpoint:      func(*Snapshot) error { calls.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.NewMoveStream(16, db, 150, testSide)
	enqueueMoves(t, p, stream, 40) // 4 full batches of 10
	closePipeline(t, p)
	// 4 batches / every 2 = 2 periodic checkpoints, plus the final one.
	if got := calls.Load(); got < 3 {
		t.Fatalf("checkpoint calls = %d, want >= 3", got)
	}
	if st := p.Stats(); st.Checkpoints != calls.Load() {
		t.Fatalf("checkpoint accounting: %+v vs %d calls", st, calls.Load())
	}
}

// TestConcurrentReadsDuringApplies hammers the published snapshot from
// reader goroutines while churn streams through the pipeline, asserting
// every observed (snapshot, policy) pair is internally consistent — the
// torn-snapshot check of the acceptance criteria, run under -race in CI.
func TestConcurrentReadsDuringApplies(t *testing.T) {
	const users, k = 240, 20
	db := testDB(t, users, 17)
	p, err := New(db, testBounds(), Config{
		K:             k,
		MaxBatch:      32,
		FlushInterval: time.Millisecond,
		MaxMoveMeters: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var torn atomic.Int64
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			i := int(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := p.Snapshot()
				policy, sdb := snap.Policy, snap.Policy.DB()
				idx := i % sdb.Len()
				i++
				cloak := policy.CloakAt(idx)
				// Consistency within one snapshot: the cloak masks the
				// user's position in the SAME snapshot and holds k users
				// of it (closed semantics — cloaks are closed rectangles,
				// Definition 2). A torn pair (old policy over new
				// positions or vice versa) fails one of these.
				inCloak := 0
				for _, rec := range sdb.Records() {
					if cloak.ContainsClosed(rec.Loc) {
						inCloak++
					}
				}
				if !cloak.ContainsClosed(sdb.At(idx).Loc) || inCloak < k {
					torn.Add(1)
					return
				}
				reads.Add(1)
			}
		}(int64(r))
	}
	// Five churn passes, each requiring reader progress before the next:
	// this forces genuine interleaving of reads with batch applies even
	// on a single-CPU box where goroutine scheduling is coarse.
	stream := workload.NewMoveStream(18, db, 150, testSide)
	prev := int64(0)
	for pass := 0; pass < 5; pass++ {
		enqueueMoves(t, p, stream, users)
		deadline := time.Now().Add(30 * time.Second)
		for reads.Load() < prev+100 && torn.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("readers starved during churn")
			}
			time.Sleep(time.Millisecond)
		}
		prev = reads.Load()
	}
	closePipeline(t, p)
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn snapshots observed", torn.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	if st := p.Stats(); st.Batches == 0 {
		t.Fatalf("no batches applied during the read storm: %+v", st)
	}
	t.Logf("reads=%d batches=%d epoch=%d", reads.Load(), p.Stats().Batches, p.Epoch())
}

// TestStrategyValidation rejects a forced-incremental pipeline on a
// non-incremental engine at construction time.
func TestStrategyValidation(t *testing.T) {
	db := testDB(t, 120, 19)
	_, err := New(db, testBounds(), Config{K: 10, Engine: "casper", Strategy: StrategyIncremental})
	if err == nil {
		t.Fatal("forced incremental on casper must fail")
	}
}

// TestFlushDeadline: a lone update with nothing after it is still
// published, by the deadline its own arrival armed, and never before
// FlushInterval has passed — also right after a size-triggered flush,
// whose disarmed deadline must not fire for the next batch.
func TestFlushDeadline(t *testing.T) {
	const flush = 40 * time.Millisecond
	db := testDB(t, 120, 21)
	published := make(chan *Snapshot, 8)
	p, err := New(db, testBounds(), Config{
		K: 10, MaxBatch: 8, FlushInterval: flush, MaxMoveMeters: -1,
		OnSwap: func(s *Snapshot) { published <- s },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closePipeline(t, p)
	<-published // the initial snapshot
	await := func() *Snapshot {
		t.Helper()
		select {
		case s := <-published:
			return s
		case <-time.After(30 * time.Second):
			t.Fatal("no snapshot published")
			return nil
		}
	}
	stream := workload.NewMoveStream(22, db, 150, testSide)
	for round := 0; round < 3; round++ {
		if round > 0 {
			// A full batch, one element, flushes on size at once; its
			// deadline is spent.
			full := make([]Update, 8)
			for i := range full {
				mv := stream.Next()
				full[i] = Update{UserID: stream.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)}
			}
			if n, err := p.EnqueueBatch(context.Background(), full); n != len(full) || err != nil {
				t.Fatalf("round %d: queued %d of %d: %v", round, n, len(full), err)
			}
			await()
		}
		start := time.Now()
		enqueueMoves(t, p, stream, 1)
		snap := await()
		if snap.Moves != 1 {
			t.Fatalf("round %d: epoch %d applied %d moves, want the lone update", round, snap.Epoch, snap.Moves)
		}
		if early := snap.AppliedAt.Sub(start); early < flush {
			t.Fatalf("round %d: lone update published %v after it was queued, before the %v deadline", round, early, flush)
		}
		if wait := p.Stats().LastQueueWaitMs; wait < float64(flush.Milliseconds()) {
			t.Fatalf("round %d: batch waited %v ms in the queue, want >= %v", round, wait, flush)
		}
	}
}

// TestEnqueueBatchStopsWhereEnqueueWould: a batch that meets a full queue
// queues the updates that fit and reports where it stopped, as one
// Enqueue per update would have — and an invalid update past that point
// is never validated into the reject counters.
func TestEnqueueBatchStopsWhereEnqueueWould(t *testing.T) {
	for _, policy := range []BackpressurePolicy{Drop, Block} {
		t.Run(policy.String(), func(t *testing.T) {
			db := testDB(t, 120, 23)
			p, release := blockedPipeline(t, db, Config{QueueCapacity: 8, Policy: policy})
			stream := workload.NewMoveStream(24, db, 150, testSide)
			enqueueMoves(t, p, stream, 1)
			for deadline := time.Now().Add(10 * time.Second); p.Stats().QueueDepth != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("maintenance loop never consumed the first update")
				}
			}
			us := make([]Update, 12)
			for i := range us {
				mv := stream.Next()
				us[i] = Update{UserID: stream.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)}
			}
			us[10].UserID = "nobody"
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			n, err := p.EnqueueBatch(ctx, us)
			want := ErrQueueFull
			if policy == Block {
				want = context.DeadlineExceeded
			}
			if n != 8 || !errors.Is(err, want) {
				t.Fatalf("queued %d, err %v; want 8 and %v", n, err, want)
			}
			st := p.Stats()
			if st.Enqueued != 9 || st.QueueDepth != 8 || st.Rejected != 0 {
				t.Fatalf("accounting after a partial batch: %+v", st)
			}
			wantDropped := int64(0)
			if policy == Drop {
				wantDropped = 1
			}
			if st.Dropped != wantDropped {
				t.Fatalf("dropped = %d, want %d", st.Dropped, wantDropped)
			}
			release()
		})
	}
}

// TestEnqueueBatchConcurrentSmallQueue: batches longer than the queue,
// from several goroutines at once under Block, all get through — a sender
// never waits on tokens it holds unsent — and no apply exceeds MaxBatch.
func TestEnqueueBatchConcurrentSmallQueue(t *testing.T) {
	const senders, batches, size, maxBatch = 4, 10, 12, 16
	db := testDB(t, 120, 25)
	// Draw every sender's batches before the pipeline owns db.
	work := make([][][]Update, senders)
	for g := range work {
		stream := workload.NewMoveStream(int64(26+g), db, 150, testSide)
		work[g] = make([][]Update, batches)
		for b := range work[g] {
			for i := 0; i < size; i++ {
				mv := stream.Next()
				work[g][b] = append(work[g][b], Update{UserID: stream.UserID(mv.Index), X: float64(mv.To.X), Y: float64(mv.To.Y)})
			}
		}
	}
	var largest atomic.Int64
	p, err := New(db, testBounds(), Config{
		K: 10, QueueCapacity: 8, MaxBatch: maxBatch, FlushInterval: time.Millisecond, MaxMoveMeters: -1,
		OnSwap: func(s *Snapshot) {
			if s.Strategy != "initial" && int64(s.Moves) > largest.Load() {
				largest.Store(int64(s.Moves))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, us := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, batch := range us {
				if n, err := p.EnqueueBatch(context.Background(), batch); n != len(batch) || err != nil {
					t.Errorf("queued %d of %d: %v", n, len(batch), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	closePipeline(t, p)
	st := p.Stats()
	if st.Enqueued != senders*batches*size || st.Dropped != 0 || st.QueueDepth != 0 {
		t.Fatalf("accounting: %+v", st)
	}
	if largest.Load() > maxBatch {
		t.Fatalf("an apply took %d moves, above MaxBatch %d", largest.Load(), maxBatch)
	}
}
