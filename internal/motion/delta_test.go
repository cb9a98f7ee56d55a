package motion

import (
	"context"
	"strconv"
	"testing"
	"time"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/obs"
	"policyanon/internal/workload"
)

// TestPipelineDeltaPublishes drives a forced-incremental pipeline and
// asserts the delta publish path actually carried the traffic: snapshots share
// storage with their predecessors and each publish rewrites far fewer
// cloaks than a full republish.
func TestPipelineDeltaPublishes(t *testing.T) {
	const users, k = 300, 20
	db := testDB(t, users, 5)
	tracer := obs.NewTracer()
	p, err := New(db, testBounds(), Config{
		K:             k,
		Strategy:      StrategyIncremental,
		MaxBatch:      32,
		FlushInterval: time.Millisecond,
		MaxMoveMeters: -1,
		BaseContext:   obs.WithTracer(context.Background(), tracer),
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.NewMoveStream(13, db, 200, testSide)
	enqueueMoves(t, p, stream, 4*users)
	closePipeline(t, p)

	st := p.Stats()
	if st.Rebuilds != 0 || st.Fallbacks != 0 {
		t.Fatalf("want no rebuilds/fallbacks, got %d/%d", st.Rebuilds, st.Fallbacks)
	}
	if st.DeltaPublishes == 0 {
		t.Fatalf("no delta publishes over %d batches", st.Batches)
	}
	// The initial publish and the first incremental batch go out in full;
	// every later batch must ride the delta chain.
	if st.DeltaPublishes < st.Batches-1 {
		t.Fatalf("%d delta publishes over %d batches — chain keeps breaking", st.DeltaPublishes, st.Batches)
	}
	// Delta publishes rewrite O(changes) cloaks; a full republish per batch
	// would have cost Batches*users.
	if st.CloaksChanged >= st.Batches*int64(users) {
		t.Fatalf("%d cloak rewrites over %d batches of %d users — delta publication not engaged",
			st.CloaksChanged, st.Batches, users)
	}
	snap := p.Snapshot()
	if !snap.Delta {
		t.Fatalf("final snapshot not delta-published: %+v", snap)
	}
	if snap.Policy.Delta() == nil {
		t.Fatal("delta snapshot carries no Delta record")
	}
	if snap.CloaksChanged >= users {
		t.Fatalf("final delta snapshot rewrote %d cloaks of %d", snap.CloaksChanged, users)
	}

	// Every publish passed the gate inside a motion.verify span that says
	// what it found.
	var verified int64
	for _, sp := range tracer.Spans() {
		if sp.Name != "motion.verify" {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		verified++
		groups, _ := strconv.Atoi(attrs["groups"])
		minAware, _ := strconv.Atoi(attrs["min_aware"])
		minUnaware, _ := strconv.Atoi(attrs["min_unaware"])
		if groups < 1 || minAware < k || minUnaware < minAware || attrs["unaware_index"] != "" {
			t.Fatalf("motion.verify span attributes %v", attrs)
		}
	}
	if verified != snap.Epoch {
		t.Fatalf("%d motion.verify spans over %d epochs", verified, snap.Epoch)
	}
	if st.LastVerifyMs <= 0 {
		t.Fatalf("stats carry no last verify: %v ms", st.LastVerifyMs)
	}
}

// smallDB places users in the lower-left corner so a deliberately narrow
// matrix can be swapped in for fallback tests.
func smallDB(t *testing.T, n int) *location.DB {
	t.Helper()
	db := location.New(n)
	for i := 0; i < n; i++ {
		if err := db.Add("u"+strconv.Itoa(i), geo.Point{X: int32(i % 64), Y: int32(i / 64)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestMaintainerFallbackOnMidBatchFailure pins the recovery contract: a
// mid-batch incremental failure (which leaves the matrix inconsistent
// with the live DB) is recovered by a full rebuild in the same apply,
// reported via the fallback flag rather than an error.
func TestMaintainerFallbackOnMidBatchFailure(t *testing.T) {
	const users, k = 128, 8
	db := smallDB(t, users)
	bounds := testBounds()
	cfg, err := Config{K: k, Strategy: StrategyIncremental}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMaintainer(db, bounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a matrix over a domain that excludes most of the map: moving
	// a user outside it fails incremental maintenance mid-batch, while the
	// rebuild over the true bounds succeeds.
	narrow, err := core.NewAnonymizer(db, geo.NewRect(0, 0, 128, 128), core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	m.anon = narrow

	res, err := m.apply(context.Background(), map[int]geo.Point{3: {X: 3000, Y: 3000}})
	if err != nil {
		t.Fatalf("apply should have recovered by rebuild: %v", err)
	}
	if !res.fallback {
		t.Fatalf("fallback not reported: %+v", res)
	}
	if res.strategy != StrategyRebuild || res.delta {
		t.Fatalf("fallback result: strategy %q delta %v", res.strategy, res.delta)
	}
	if got := res.policy.DB().At(3).Loc; got != (geo.Point{X: 3000, Y: 3000}) {
		t.Fatalf("published record 3 at %v after fallback", got)
	}
	if m.lastPub != res.policy {
		t.Fatal("fallback publish did not re-anchor the delta chain")
	}
	// The next batch rides the re-anchored chain as a delta.
	res2, err := m.apply(context.Background(), map[int]geo.Point{5: {X: 40, Y: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.delta || res2.fallback {
		t.Fatalf("post-fallback batch: delta %v fallback %v", res2.delta, res2.fallback)
	}
}

// TestMaintainerDeltaMismatchSelfHeals pins ApplyDelta's validation as the
// safety net: when the published parent silently disagrees with the
// matrix baseline, the batch publishes from scratch (no error, no corrupt
// policy) and the chain re-anchors.
func TestMaintainerDeltaMismatchSelfHeals(t *testing.T) {
	const users, k = 128, 8
	db := smallDB(t, users)
	cfg, err := Config{K: k, Strategy: StrategyIncremental}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMaintainer(db, testBounds(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.apply(ctx, map[int]geo.Point{1: {X: 10, Y: 10}}); err != nil {
		t.Fatal(err)
	}
	res, err := m.apply(ctx, map[int]geo.Point{2: {X: 11, Y: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.delta {
		t.Fatalf("second batch did not publish a delta: %+v", res)
	}

	// Corrupt the chain: replace lastPub with an assignment whose record 0
	// sits elsewhere inside its cloak. The next batch's From for record 0
	// (captured from the live DB) won't match this parent.
	bad := m.lastPub.DB().Clone()
	cl := m.lastPub.CloakAt(0)
	other := geo.Point{X: cl.MinX, Y: cl.MinY}
	if other == bad.At(0).Loc {
		other = geo.Point{X: cl.MaxX, Y: cl.MaxY}
	}
	bad.MoveAt(0, other)
	m.lastPub, err = lbs.NewAssignment(bad, m.lastPub.Cloaks())
	if err != nil {
		t.Fatal(err)
	}

	res, err = m.apply(ctx, map[int]geo.Point{0: {X: 12, Y: 12}})
	if err != nil {
		t.Fatalf("mismatched delta should self-heal, got: %v", err)
	}
	if res.delta || res.fallback {
		t.Fatalf("mismatched batch published delta=%v fallback=%v, want full incremental publish", res.delta, res.fallback)
	}
	if res.strategy != StrategyIncremental {
		t.Fatalf("strategy %q", res.strategy)
	}
	if got := m.lastPub.DB().At(0).Loc; got != (geo.Point{X: 12, Y: 12}) {
		t.Fatalf("re-anchored publish has record 0 at %v", got)
	}
	// Chain is intact again.
	res, err = m.apply(ctx, map[int]geo.Point{4: {X: 13, Y: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.delta {
		t.Fatalf("chain did not re-anchor after self-heal: %+v", res)
	}
}
