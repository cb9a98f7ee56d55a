package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/location"
)

// sizes fixes the populations of the four workloads.
type sizes struct {
	MasterIntersections int    // the Master set every population is sampled from; ten users each
	MasterSHA256        string // fingerprint of that Master set; the harness refuses any other
	ServeUsers          int    // serve_batch_hit, serve_batch_miss
	InstallUsers        int    // install_repeat
	MovesUsers          int    // moves_publish
	POIs                int
	WorkingSet          int // users serve_batch_hit draws from
}

// contract is the one measured scale: what the driver's time cap allows
// with several set-ups per run (README, "Populations"). The smoke test
// runs the same code on a smaller value of its own.
var contract = sizes{MasterIntersections: 50000,
	MasterSHA256: "e937c9762790b20838576917c335883ad357efe932b59237d5351dc5f27752c8",
	ServeUsers:   200000, InstallUsers: 100000, MovesUsers: 20000,
	POIs: 20000, WorkingSet: 1 << 13}

// A plain run sets its workload up against a fresh server at least
// minSetups times, and goes on while the set-ups so far took less than
// setupBudget together, up to maxSetups; setup_s is the median. A set-up
// of a tenth of a second is timed nine times, one of two seconds thrice.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

const (
	batchItems = 64
	moveBatch  = 512 // motion's default MaxBatch, so the size trigger flushes a whole batch
	nnCategory = "gas"
	pollEvery  = 2 * time.Millisecond
	// moveThink is the least the moves_publish writer stays quiet after a
	// batch is published: the pipeline's default flush interval.
	moveThink = 50 * time.Millisecond
)

// instance is one workload with its inputs generated and its oracle
// computed. setup brings a fresh server to the point where measuring can
// start; measure runs the timed phase and fills the result. Both use the
// one connection a run has: load comes from one goroutine of one process.
type instance interface {
	users() int
	motion() bool
	setup(r *run, c *conn) error
	measure(r *run, c *conn, seconds float64) error
	// probe is the traced run's in-process half (layers.go).
	probe(p *probe) error
}

var workloads = map[string]func(sz sizes, seed int64) (instance, error){
	"serve_batch_hit":  newServeBatchHit,
	"serve_batch_miss": newServeBatchMiss,
	"install_repeat":   newInstallRepeat,
	"moves_publish":    newMovesPublish,
}

var workloadOrder = []string{"serve_batch_hit", "serve_batch_miss", "install_repeat", "moves_publish"}

// run is the state of one workload run.
type run struct {
	ctx   context.Context
	bin   string
	res   *result
	fails failures
	speed *hostSpeed
}

// fail records why an operation failed and returns false, so operation
// closures can `return done, r.fail(err)`.
func (r *run) fail(err error) bool {
	r.fails.add(err)
	return false
}

// serverStats are the counters read from the child before and after the
// window; the traced run reports their deltas as layer metrics.
type serverStats struct {
	CacheHits, CacheMisses, Coalesced int64
	Fallbacks, Rejected               int64
}

func readStats(c *conn, motion bool) (serverStats, error) {
	var st serverStats
	status, body, err := c.do("GET", "/v1/stats", nil)
	if err != nil || status != 200 {
		return st, fmt.Errorf("GET /v1/stats: status %d: %v", status, err)
	}
	var s struct {
		CacheHits         int64 `json:"cacheHits"`
		CacheMisses       int64 `json:"cacheMisses"`
		CoalesceCoalesced int64 `json:"coalesceCoalesced"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	st.CacheHits, st.CacheMisses, st.Coalesced = s.CacheHits, s.CacheMisses, s.CoalesceCoalesced
	if motion {
		ms, err := readMotion(c)
		if err != nil {
			return st, err
		}
		st.Fallbacks, st.Rejected = ms.Fallbacks, ms.Rejected
	}
	return st, nil
}

type motionStats struct {
	Moves     int64 `json:"moves"`
	Batches   int64 `json:"batches"`
	Fallbacks int64 `json:"fallbacks"`
	Rejected  int64 `json:"rejected"`
}

func readMotion(c *conn) (motionStats, error) {
	status, body, err := c.do("GET", "/v1/motion", nil)
	if err != nil || status != 200 {
		return motionStats{}, fmt.Errorf("GET /v1/motion: status %d: %v", status, err)
	}
	var m struct {
		Enabled bool        `json:"enabled"`
		Stats   motionStats `json:"stats"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return motionStats{}, fmt.Errorf("GET /v1/motion: %w", err)
	}
	if !m.Enabled {
		return motionStats{}, fmt.Errorf("GET /v1/motion: pipeline not enabled")
	}
	return m.Stats, nil
}

// execute sets the workload up against fresh servers — once for a traced
// run, several times for a plain one — and measures on the last. The
// child is stopped on every path.
func (r *run) execute(inst instance, traced bool, seconds float64) (stats serverStats, err error) {
	r.res.Users = inst.users()
	r.res.Seconds = seconds
	var spent time.Duration
	for s := 1; ; s++ {
		last := traced || s == maxSetups || (s >= minSetups && spent >= setupBudget)
		t0 := time.Now()
		if stats, err = r.once(inst, last, seconds); err != nil || last {
			return stats, err
		}
		spent += time.Since(t0)
	}
}

func (r *run) once(inst instance, last bool, seconds float64) (delta serverStats, err error) {
	t0 := time.Now()
	ch, err := startChild(r.ctx, r.bin, inst.motion())
	if err != nil {
		return delta, err
	}
	defer ch.stop()
	defer func() {
		if err != nil {
			r.res.ServerLog = ch.stderr.String()
		}
	}()
	c, err := connect(ch.addr)
	if err != nil {
		return delta, err
	}
	defer c.close()
	if err = inst.setup(r, c); err != nil {
		return delta, fmt.Errorf("set-up: %w", err)
	}
	r.res.SetupSeconds = append(r.res.SetupSeconds, time.Since(t0).Seconds())
	r.speed.sample()
	if !last {
		return delta, nil
	}
	before, err := readStats(c, inst.motion())
	if err != nil {
		return delta, err
	}
	if err = inst.measure(r, c, seconds); err != nil {
		return delta, err
	}
	after, err := readStats(c, inst.motion())
	if err != nil {
		return delta, err
	}
	rss, err := ch.peakRSSMB()
	if err != nil {
		return delta, err
	}
	r.res.set("server_rss_mb", rss, "MB")
	r.res.set("setup_s", percentile(r.res.SetupSeconds, 50), "s")
	return serverStats{
		CacheHits:   after.CacheHits - before.CacheHits,
		CacheMisses: after.CacheMisses - before.CacheMisses,
		Coalesced:   after.Coalesced - before.Coalesced,
		Fallbacks:   after.Fallbacks - before.Fallbacks,
		Rejected:    after.Rejected - before.Rejected,
	}, nil
}

// latencyMetrics reports a phase's median and tail latency. The tail is
// the wanted percentile when ten samples lie beyond it, otherwise the
// highest supported one; which one it was is in the detail section.
func (r *run) latencyMetrics(ph *phase, wantTail float64) {
	tail := wantTail
	if t := tailPercent(len(ph.lat)); t < tail {
		tail = t
	}
	r.res.set("latency_p50_ms", percentile(ph.lat, 50), "ms")
	r.res.set("latency_tail_ms", percentile(ph.lat, tail), "ms")
	r.res.detail("latency_samples", float64(len(ph.lat)))
	r.res.detail("latency_tail_percentile", tail)
}

// install posts a snapshot and holds the answer to the oracle.
func install(c *conn, body []byte, o *oracle) error {
	status, resp, err := c.do("POST", "/v1/snapshot", body)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("POST /v1/snapshot: status %d: %s", status, resp)
	}
	var in installJSON
	if err := json.Unmarshal(resp, &in); err != nil {
		return fmt.Errorf("POST /v1/snapshot: %w", err)
	}
	if in.Users != o.db.Len() {
		return fmt.Errorf("POST /v1/snapshot: installed %d users, sent %d", in.Users, o.db.Len())
	}
	if in.PolicyCost != o.cost {
		return fmt.Errorf("POST /v1/snapshot: policyCost %d, oracle OptimalCost %d", in.PolicyCost, o.cost)
	}
	return nil
}

// served is what the three request-serving workloads share: a sampled
// snapshot and POIs, both pre-marshalled, and the oracle over them.
type served struct {
	o        *oracle
	snapshot []byte
	pois     []byte
}

func newServed(sz sizes, users int, seed int64) (served, error) {
	db, err := genUsers(sz, users, seed)
	if err != nil {
		return served{}, err
	}
	pois := genPOIs(sz.POIs, seed)
	o, err := newOracle(db, pois)
	if err != nil {
		return served{}, err
	}
	return served{o: o, snapshot: snapshotBody(db), pois: poisBody(pois)}, nil
}

func (s *served) users() int { return s.o.db.Len() }

// install posts the snapshot, held to the oracle, and the POIs.
func (s *served) install(c *conn) error {
	if err := install(c, s.snapshot, s.o); err != nil {
		return err
	}
	status, resp, err := c.do("POST", "/v1/pois", s.pois)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("POST /v1/pois: status %d: %s", status, resp)
	}
	return nil
}

// postBatch posts one /v1/request/batch body and splits the answer into
// its items, undecoded.
func postBatch(c *conn, body []byte) (time.Time, []json.RawMessage, error) {
	status, resp, err := c.do("POST", "/v1/request/batch", body)
	done := time.Now()
	if err != nil {
		return done, nil, err
	}
	if status != 200 {
		return done, nil, fmt.Errorf("POST /v1/request/batch: status %d: %s", status, resp)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return done, nil, fmt.Errorf("POST /v1/request/batch: %w", err)
	}
	if len(out.Results) != batchItems {
		return done, nil, fmt.Errorf("POST /v1/request/batch: %d results for %d items", len(out.Results), batchItems)
	}
	return done, out.Results, nil
}

// ---- serve_batch_hit ---------------------------------------------------

type serveBatchHit struct {
	served
	slots  []int    // working set: record indices
	reqs   [][]byte // per slot: the request, alone a /v1/request body, in a batch an item
	expect [][]byte // per slot: the verified answer from its cloak on (stablePart)
	order  []int32  // seeded draw of slots, one per item
	body   []byte   // reusable memory for one batch's body
}

func newServeBatchHit(sz sizes, seed int64) (instance, error) {
	sv, err := newServed(sz, sz.ServeUsers, seed)
	if err != nil {
		return nil, err
	}
	w, db := &serveBatchHit{served: sv}, sv.o.db
	rng := newRNG(seed, streamRequests)
	n := sz.WorkingSet
	if n > db.Len() {
		return nil, fmt.Errorf("working set %d exceeds %d users", n, db.Len())
	}
	w.slots = rng.Perm(db.Len())[:n]
	w.reqs = make([][]byte, n)
	w.expect = make([][]byte, n)
	for s, idx := range w.slots {
		w.reqs[s] = nnRequest(nil, db.At(idx), nnCategory)
	}
	w.order = make([]int32, 1<<20)
	for i := range w.order {
		w.order[i] = int32(rng.Intn(n))
	}
	return w, nil
}

func (w *serveBatchHit) motion() bool { return false }

// setup installs the snapshot and POIs and makes one pass over the
// working set, slot by slot in batches, which fills the CSP cache,
// verifies every slot's answer against the oracle in full, and keeps the
// verified bytes.
func (w *serveBatchHit) setup(r *run, c *conn) error {
	if err := w.install(c); err != nil {
		return err
	}
	for first := 0; first < len(w.slots); first += batchItems {
		slot := func(j int) int { return (first + j) % len(w.slots) }
		_, items, err := postBatch(c, w.batchBody(slot))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for j, item := range items {
			if err := w.o.checkNN(w.slots[slot(j)], nnCategory, item); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			w.expect[slot(j)] = append(w.expect[slot(j)][:0], stablePart(item)...)
		}
	}
	return nil
}

// batchBody is a batch of the requests of slot(0) ... slot(63).
func (w *serveBatchHit) batchBody(slot func(j int) int) []byte {
	body := append(w.body[:0], `{"requests":[`...)
	for j := 0; j < batchItems; j++ {
		if j > 0 {
			body = append(body, ',')
		}
		body = append(body, w.reqs[slot(j)]...)
	}
	w.body = append(body, `]}`...)
	return w.body
}

// drawn is the slot of the i-th item of the seeded draw.
func (w *serveBatchHit) drawn(i int) int { return int(w.order[i&(len(w.order)-1)]) }

// correct holds one answer to its slot. Bytes equal to the ones verified
// during warm-up are correct; any other answer is decoded and held to
// the oracle again, so a harmless change of encoding does not fail.
func (w *serveBatchHit) correct(s int, answer []byte) error {
	if bytes.Equal(stablePart(answer), w.expect[s]) {
		return nil
	}
	return w.o.checkNN(w.slots[s], nnCategory, answer)
}

// batch is one measured batch: 64 items drawn from the working set.
func (w *serveBatchHit) batch(r *run) opFunc {
	return func(c *conn, b int) (time.Time, bool) {
		slot := func(j int) int { return w.drawn(b*batchItems + j) }
		done, items, err := postBatch(c, w.batchBody(slot))
		if err != nil {
			return done, r.fail(err)
		}
		for j, item := range items {
			if err := w.correct(slot(j), item); err != nil {
				return done, r.fail(fmt.Errorf("batch %d item %d: %w", b, j, err))
			}
		}
		return done, true
	}
}

// single is one /v1/request over the same working set.
func (w *serveBatchHit) single(r *run) opFunc {
	return func(c *conn, i int) (time.Time, bool) {
		s := w.drawn(i)
		status, body, err := c.do("POST", "/v1/request", w.reqs[s])
		done := time.Now()
		if err != nil || status != 200 {
			return done, r.fail(fmt.Errorf("POST /v1/request: status %d: %s: %v", status, body, err))
		}
		if err := w.correct(s, body); err != nil {
			return done, r.fail(err)
		}
		return done, true
	}
}

// measure spends nine tenths of the window on batches, which the
// declared metrics describe, and the last tenth on single requests: the
// mobile user's round trip, reported as timed in the detail section
// (README, "Why the hit path is measured in batches").
func (w *serveBatchHit) measure(r *run, c *conn, seconds float64) error {
	window := time.Duration(seconds * float64(time.Second))
	ph := r.closedLoop("batches", c, window*9/10, w.batch(r))
	r.latencyMetrics(&ph, 99)
	r.res.set("throughput_per_s", float64(ph.Succeeded*batchItems)/ph.Seconds, "1/s")
	singles := r.closedLoop("singles", c, window/10, w.single(r))
	r.res.detail("single_request_p50_ms", percentile(singles.lat, 50))
	r.res.detail("single_request_samples", float64(len(singles.lat)))
	r.res.Phases = append(r.res.Phases, ph, singles)
	return nil
}

// ---- serve_batch_miss -------------------------------------------------

type serveBatchMiss struct {
	served
	order  []int32 // seeded draw of record indices, one per item
	bases  []int16 // seeded base radius per item, meters
	cats   []uint8 // seeded category per item
	warmed int     // batches spent on warm-up; measured batches number after them
	body   []byte  // reusable memory for one batch's body
}

func newServeBatchMiss(sz sizes, seed int64) (instance, error) {
	sv, err := newServed(sz, sz.ServeUsers, seed)
	if err != nil {
		return nil, err
	}
	w, db := &serveBatchMiss{served: sv}, sv.o.db
	rng := newRNG(seed, streamRadii)
	w.order = make([]int32, 1<<18)
	w.bases = make([]int16, len(w.order))
	w.cats = make([]uint8, len(w.order))
	for i := range w.order {
		w.order[i] = int32(rng.Intn(db.Len()))
		w.bases[i] = int16(100 + rng.Intn(400))
		w.cats[i] = uint8(rng.Intn(len(categories)))
	}
	return w, nil
}

func (w *serveBatchMiss) motion() bool { return false }

const batchWarmup = 16

func (w *serveBatchMiss) setup(r *run, c *conn) error {
	if err := w.install(c); err != nil {
		return err
	}
	for i := 0; i < batchWarmup; i++ {
		if _, err := w.batch(c, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	w.warmed = batchWarmup
	return nil
}

// item describes item j of batch b. Serial numbers never repeat within
// a run, so no (cloak, params) key does.
func (w *serveBatchMiss) item(b, j int) (idx int, category string, radius rangeRadius) {
	serial := b*batchItems + j
	k := serial & (len(w.order) - 1)
	return int(w.order[k]), categories[w.cats[k]], rangeRadius{base: int(w.bases[k]), serial: serial}
}

// batchBody is the /v1/request/batch body of batch b.
func (w *serveBatchMiss) batchBody(b int) []byte {
	body := append(w.body[:0], `{"requests":[`...)
	for j := 0; j < batchItems; j++ {
		if j > 0 {
			body = append(body, ',')
		}
		idx, cat, radius := w.item(b, j)
		body = rangeRequest(body, w.o.db.At(idx), cat, radius)
	}
	w.body = append(body, `]}`...)
	return w.body
}

// batch posts batch b and checks every item: the cloak against the
// oracle policy, the candidates for soundness, and one item per batch
// (rotating) exactly against POIStore.CandidateInRange — the reference
// is a scan of every POI, too slow to run 64 times beside a measured
// server on a two-CPU box.
func (w *serveBatchMiss) batch(c *conn, b int) (time.Time, error) {
	done, results, err := postBatch(c, w.batchBody(b))
	if err != nil {
		return done, err
	}
	for j := range results {
		// Decoded into fresh memory: the server omits empty candidate lists,
		// and encoding/json leaves a reused value's absent fields as they were.
		a := new(answerJSON)
		if err := json.Unmarshal(results[j], a); err != nil {
			return done, fmt.Errorf("batch %d item %d: %w", b, j, err)
		}
		idx, cat, radius := w.item(b, j)
		if err := w.o.checkCloak(idx, a); err != nil {
			return done, err
		}
		if err := checkRangeSound(a, cat, radius.meters()); err != nil {
			return done, fmt.Errorf("batch %d item %d: %w", b, j, err)
		}
		if j == b%batchItems {
			if err := w.o.checkRangeExact(a, cat, radius.meters()); err != nil {
				return done, fmt.Errorf("batch %d item %d: %w", b, j, err)
			}
		}
	}
	return done, nil
}

func (w *serveBatchMiss) measure(r *run, c *conn, seconds float64) error {
	ph := r.closedLoop("batches", c, time.Duration(seconds*float64(time.Second)), func(c *conn, i int) (time.Time, bool) {
		done, err := w.batch(c, w.warmed+i)
		if err != nil {
			return done, r.fail(err)
		}
		return done, true
	})
	r.latencyMetrics(&ph, 95)
	r.res.set("throughput_per_s", float64(ph.Succeeded*batchItems)/ph.Seconds, "1/s")
	r.res.Phases = append(r.res.Phases, ph)
	return nil
}

// ---- install_repeat ----------------------------------------------------

type installRepeat struct {
	oracles [2]*oracle
	bodies  [2][]byte
}

func newInstallRepeat(sz sizes, seed int64) (instance, error) {
	w := &installRepeat{}
	for i := range w.oracles {
		db, err := genUsers(sz, sz.InstallUsers, seed+int64(i))
		if err != nil {
			return nil, err
		}
		o, err := newOracle(db, nil)
		if err != nil {
			return nil, err
		}
		w.oracles[i], w.bodies[i] = o, snapshotBody(db)
	}
	return w, nil
}

func (w *installRepeat) users() int   { return w.oracles[0].db.Len() }
func (w *installRepeat) motion() bool { return false }

// setup installs each body once, so the measured installs replace a
// snapshot on a heap that has already grown, as an operator's do.
func (w *installRepeat) setup(r *run, c *conn) error {
	for i := range w.bodies {
		if err := install(c, w.bodies[i], w.oracles[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *installRepeat) measure(r *run, c *conn, seconds float64) error {
	ph := r.closedLoop("installs", c, time.Duration(seconds*float64(time.Second)), func(c *conn, i int) (time.Time, bool) {
		status, resp, err := c.do("POST", "/v1/snapshot", w.bodies[i%2])
		done := time.Now()
		if err != nil {
			return done, r.fail(err)
		}
		var in installJSON
		if status != 200 {
			return done, r.fail(fmt.Errorf("POST /v1/snapshot: status %d: %s", status, resp))
		}
		if err := json.Unmarshal(resp, &in); err != nil {
			return done, r.fail(fmt.Errorf("POST /v1/snapshot: %w", err))
		}
		if o := w.oracles[i%2]; in.Users != o.db.Len() || in.PolicyCost != o.cost {
			return done, r.fail(fmt.Errorf("install %d: users %d policyCost %d, oracle %d and %d", i, in.Users, in.PolicyCost, o.db.Len(), o.cost))
		}
		return done, true
	})
	r.latencyMetrics(&ph, 75)
	r.res.set("throughput_per_s", float64(ph.Succeeded*w.users())/ph.Seconds, "1/s")
	r.res.Phases = append(r.res.Phases, ph)
	return nil
}

// ---- moves_publish -----------------------------------------------------

type movesPublish struct {
	o        *oracle
	snapshot []byte
	seed     int64
	movers   []int       // record indices in seeded order, taken round-robin
	pos      []geo.Point // current position of every record, as the harness moved it
	rng      *rand.Rand
	next     int
}

func newMovesPublish(sz sizes, seed int64) (instance, error) {
	db, err := genUsers(sz, sz.MovesUsers, seed)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(db, nil)
	if err != nil {
		return nil, err
	}
	return &movesPublish{o: o, snapshot: snapshotBody(db), seed: seed}, nil
}

func (w *movesPublish) users() int   { return w.o.db.Len() }
func (w *movesPublish) motion() bool { return true }

// setup installs the snapshot and rewinds the move plan: every set-up
// starts from the generated positions.
func (w *movesPublish) setup(r *run, c *conn) error {
	if err := install(c, w.snapshot, w.o); err != nil {
		return err
	}
	w.resetMoves()
	return nil
}

// plannedMove is one move of the plan: record index and destination.
type plannedMove struct {
	idx int
	to  geo.Point
}

// resetMoves rewinds the move plan to the generated positions.
func (w *movesPublish) resetMoves() {
	w.rng = newRNG(w.seed, streamMoves)
	w.movers = w.rng.Perm(w.o.db.Len())
	w.pos = w.o.db.Points()
	w.next = 0
}

// nextMoves draws the next moveBatch movers, round-robin over the
// records in seeded order, and moves each once from where the plan last
// left it.
func (w *movesPublish) nextMoves() []plannedMove {
	batch := make([]plannedMove, moveBatch)
	for j := range batch {
		idx := w.movers[w.next%len(w.movers)]
		w.next++
		w.pos[idx] = moveTarget(w.rng, w.pos[idx])
		batch[j] = plannedMove{idx: idx, to: w.pos[idx]}
	}
	return batch
}

func (w *movesPublish) moveBody(b []byte) []byte {
	b = append(b[:0], `{"moves":[`...)
	for j, mv := range w.nextMoves() {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendUser(b, "id", w.o.db.At(mv.idx).UserID, mv.to)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// measure is a closed loop with think time: post a full batch, poll
// until /v1/motion shows its moves published, stay quiet for one flush
// interval, post the next. The quiet lets the maintenance loop finish
// its swap-time audit, take the flush tick that came due during the
// apply on an empty batch, and park — so that the size trigger, not the
// ticker, flushes the next batch (README, "the flush ticker"). The
// host-speed kernel runs at the end of the quiet.
func (w *movesPublish) measure(r *run, c *conn, seconds float64) error {
	var body []byte
	var sent int64
	var expect time.Duration // four fifths of the last batch's wait: no point polling before
	ph := r.closedLoop("publishes", c, time.Duration(seconds*float64(time.Second)), func(c *conn, i int) (time.Time, bool) {
		body = w.moveBody(body)
		posted := time.Now()
		status, resp, err := c.do("POST", "/v1/moves", body)
		if err != nil || status != 202 {
			return time.Now(), r.fail(fmt.Errorf("POST /v1/moves: status %d: %s: %v", status, resp, err))
		}
		sent += moveBatch
		published, err := w.awaitPublished(c, sent, expect)
		if err != nil {
			return published, r.fail(err)
		}
		lag := published.Sub(posted)
		expect = lag * 4 / 5
		time.Sleep(max(moveThink, lag) - time.Since(published))
		// The kernel runs before every batch, not every 400 ms: it leaves
		// the caches cold, which costs the next publish part of its time,
		// and before one batch in four that put the p75 on the edge between
		// warm and cold batches (58 or 75 ms, run by run).
		r.speed.sample()
		return published, true
	})
	if ph.Failed > 0 {
		// A refused batch was queued in part: the plan and the server no
		// longer agree, so the final comparison cannot be made.
		return fmt.Errorf("a batch was refused or never published")
	}
	r.latencyMetrics(&ph, 75)
	r.res.set("throughput_per_s", float64(ph.Succeeded*moveBatch)/ph.Seconds, "1/s")
	if ms, err := readMotion(c); err == nil {
		// More applies than batches means the flush ticker split some.
		r.res.detail("motion_batches_applied", float64(ms.Batches))
	}
	r.res.Phases = append(r.res.Phases, ph)
	r.res.check("moved_cloaks_match_from_scratch_policy", w.compareMoved(c))
	return nil
}

// awaitPublished polls /v1/motion every 2 ms until the published move
// count covers everything sent, and returns when that was first seen. It
// sleeps through `quiet` first: each poll is a request the server must
// answer beside the maintenance loop.
func (w *movesPublish) awaitPublished(c *conn, sent int64, quiet time.Duration) (time.Time, error) {
	time.Sleep(quiet)
	deadline := time.Now().Add(60 * time.Second)
	for {
		ms, err := readMotion(c)
		now := time.Now()
		if err != nil {
			return now, err
		}
		if ms.Moves >= sent {
			return now, nil
		}
		if now.After(deadline) {
			return now, fmt.Errorf("batch not published after 60s: %d of %d moves visible", ms.Moves, sent)
		}
		time.Sleep(pollEvery)
	}
}

// compareMoved recomputes the policy from scratch over the moved
// snapshot and compares the server's cloaks for 1,000 seeded users.
func (w *movesPublish) compareMoved(c *conn) error {
	moved := location.New(len(w.pos))
	for i, p := range w.pos {
		if err := moved.Add(w.o.db.At(i).UserID, p); err != nil {
			return err
		}
	}
	anon, err := core.NewAnonymizer(moved, bounds(), core.AnonymizerOptions{K: anonK})
	if err != nil {
		return err
	}
	policy, err := anon.Policy()
	if err != nil {
		return err
	}
	sample := newRNG(w.seed, streamProbe).Perm(len(w.pos))
	if len(sample) > 1000 {
		sample = sample[:1000]
	}
	sort.Ints(sample)
	for _, idx := range sample {
		id := moved.At(idx).UserID
		status, body, err := c.do("GET", "/v1/cloak?user="+id, nil)
		if err != nil {
			return err
		}
		var a answerJSON
		if status != 200 || json.Unmarshal(body, &a) != nil || a.Cloak == nil {
			return fmt.Errorf("GET /v1/cloak?user=%s: status %d: %s", id, status, body)
		}
		if got, want := a.Cloak.rect(), policy.CloakAt(idx); got != want {
			return fmt.Errorf("user %s after the moves: cloak %v, from-scratch policy %v", id, got, want)
		}
	}
	return nil
}
