package main

// The traced run's in-process half: it replays the inputs the workload
// generated through each layer's exported functions, with the spans of
// the recorder below around the calls. This is the one file of the
// benchmark that depends on the exported API of the layers, so a
// refactor knows what it breaks:
//
//	server    New, (*Server).Handler, (*Server).SetRequestTracing
//	lbs       NewPOIStore, NewPOIProvider, NewCSP, (*CSP).Serve,
//	          (*POIProvider).Answer, (*POIStore).CandidateInRange/CandidateNearest,
//	          NewAssignment, (*Assignment).Anonymize/ApplyDelta/Cloaks/CloakAt, Move
//	audit     New, Options, DefaultRate, (*Auditor).MaybeObserveRequest/ObservePolicy
//	location  New, (*DB).Add/Clone/Records/Points/At
//	tree      Build, Options, (*Tree).NumNodes/PostOrder
//	core      NewMatrix, Options, (*Matrix).Extract/ExtractDelta/Row,
//	          NewAnonymizer, (*Anonymizer).Move/Refresh/Policy/Matrix
//	attacker  Audit, PolicyAware, PolicyUnaware
//	verify    Policy, Delta
//	motion    New, Config, Update, (*Pipeline).Enqueue/Epoch/Stats/Close
//	engine    DefaultName
//	metrics   NewRegistry

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/audit"
	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/motion"
	"policyanon/internal/server"
	"policyanon/internal/tree"
	"policyanon/internal/verify"
)

// span is one timed call into a layer: name, start and end since the
// recorder began, and the span that was open when it began (-1 for none).
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
}

// recorder is the benchmark's own span recorder. Spans are kept in memory
// and summarised at exit. The probe is single-goroutine, so the innermost
// open span is the parent. A nil recorder records nothing, which is how
// the cost of the recorder itself is measured.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent})
	r.open = append(r.open, id)
	r.spans[id].Start = time.Since(r.t0)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// layerSpans is one layer's spans: each one's duration and self time
// (duration minus the part child spans cover), in milliseconds.
type layerSpans struct {
	dur, self []float64
}

func (r *recorder) byLayer() map[string]*layerSpans {
	children := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerSpans)
	for i, s := range r.spans {
		l := out[s.Name]
		if l == nil {
			l = new(layerSpans)
			out[s.Name] = l
		}
		d := s.End - s.Start
		l.dur = append(l.dur, float64(d)/1e6)
		l.self = append(l.self, float64(d-children[i])/1e6)
	}
	return out
}

// nested reports the first child span that does not lie inside its
// parent's interval.
func (r *recorder) nested() error {
	for _, s := range r.spans {
		if s.Parent < 0 {
			continue
		}
		if p := r.spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s [%v,%v] lies outside its parent %s [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// meanNs is the layer's mean span duration: the figure for calls made
// thousands of times, where allocation and GC are part of the cost.
func (l *layerSpans) meanNs() float64 {
	if l == nil || len(l.dur) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range l.dur {
		sum += d
	}
	return sum / float64(len(l.dur)) * 1e6
}

// medianMs is the layer's median span duration: the figure for calls
// made a handful of times, where one GC cycle would move a mean.
func (l *layerSpans) medianMs() float64 {
	if l == nil {
		return 0
	}
	return percentile(l.dur, 50)
}

// childrenMs is the median, over the layer's spans, of the time their
// child spans cover.
func (l *layerSpans) childrenMs() float64 {
	if l == nil {
		return 0
	}
	covered := make([]float64, len(l.dur))
	for i := range l.dur {
		covered[i] = l.dur[i] - l.self[i]
	}
	return percentile(covered, 50)
}

// selfMs is the self time of a black-box call whose children the probe
// cannot see from outside: the call's median span less what the children
// cover in the replay that makes the same calls one by one. The two are
// medians of separate executions, so when the children explain all of
// the call the difference is noise around zero; it is reported as 0
// then, and the raw share stays in the detail section.
func selfMs(call, replay *layerSpans) float64 {
	return math.Max(0, call.medianMs()-replay.childrenMs())
}

// counted runs f n times under one span each and returns mallocs and
// bytes allocated per call.
func counted(rec *recorder, name string, n int, f func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		id := rec.begin(name)
		f(i)
		rec.end(id)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// layerUnits declares every per-layer metric and its unit. A traced run
// of a workload emits all of them; the layers the workload does not
// exercise read 0, the time they take in it.
var layerUnits = map[string]string{
	"server.request_ns": "ns", "server.request_allocs": "count", "server.request_bytes": "B",
	"server.request_notrace_ns": "ns", "obs.request_tracing_pct": "%", "server.request_self_ns": "ns",
	"http.loopback_self_us": "us", "lbs.csp_serve_hit_ns": "ns", "lbs.csp_serve_hit_allocs": "count",
	"lbs.anonymize_ns": "ns", "audit.observe_request_ns": "ns",
	"server.batch64_ns": "ns", "server.batch64_allocs": "count",
	"lbs.csp_serve_miss_ns": "ns", "lbs.csp_serve_miss_allocs": "count", "lbs.provider_answer_ns": "ns",
	"lbs.poi_in_range_ns": "ns", "lbs.poi_nearest_ns": "ns",
	"lbs.csp_hit_ratio": "ratio", "lbs.csp_coalesced": "count",
	"server.snapshot_ms": "ms", "server.snapshot_self_ms": "ms", "location.add_ms": "ms",
	"tree.build_ms": "ms", "tree.nodes": "count", "core.combine_ms": "ms", "core.combine_allocs": "count",
	"core.rows": "count", "core.extract_ms": "ms", "lbs.new_assignment_ms": "ms",
	"attacker.audit_aware_ms": "ms", "attacker.audit_unaware_ms": "ms", "audit.observe_policy_ms": "ms",
	"runtime.gc_cycles": "count", "runtime.heap_peak_mb": "MB",
	"motion.batch_ms": "ms", "motion.batch_self_ms": "ms", "motion.enqueue_ns": "ns", "core.move_us": "us",
	"core.update_ms": "ms", "core.rows_recomputed": "count", "core.extract_delta_ms": "ms",
	"core.rows_visited": "count", "lbs.cloaks_changed": "count", "lbs.apply_delta_ms": "ms",
	"verify.policy_ms": "ms", "verify.delta_ms": "ms", "motion.fallbacks": "count", "motion.rejected": "count",
	"probe.span_overhead_pct": "%",
}

// exactLayerCounts are the layer metrics that must repeat bit for bit
// for one seed.
var exactLayerCounts = []string{"tree.nodes", "core.rows", "core.rows_recomputed", "core.rows_visited", "lbs.cloaks_changed"}

// probe is the state of one traced run's in-process half.
type probe struct {
	res   *result
	rec   *recorder
	stats serverStats // the child's counter deltas over that window
}

func (p *probe) set(name string, v float64) { p.res.set(name, v, layerUnits[name]) }

// probeLayers runs the workload's layer probe and replaces the result's
// metrics with the per-layer set.
func probeLayers(res *result, inst instance, stats serverStats) error {
	p := &probe{res: res, rec: newRecorder(), stats: stats}
	res.Metrics = nil
	for name := range layerUnits {
		p.set(name, 0)
	}
	if err := inst.probe(p); err != nil {
		return err
	}
	for _, name := range exactLayerCounts {
		res.exact(name, int64(res.Metrics[name].Value))
	}
	res.check("child_spans_inside_parents", p.rec.nested())
	return nil
}

// handlerDo drives one request through the server's handler directly:
// no socket, the httptest recorder as the response writer.
func handlerDo(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// newProbeServer is an in-process server with the child's defaults and
// the workload's snapshot and POIs installed through its handler.
func newProbeServer(snapshot, pois []byte) (*server.Server, http.Handler, error) {
	srv := server.New()
	h := srv.Handler()
	if w := handlerDo(h, "POST", "/v1/snapshot", snapshot); w.Code != 200 {
		return nil, nil, fmt.Errorf("probe install: status %d: %s", w.Code, w.Body)
	}
	if pois != nil {
		if w := handlerDo(h, "POST", "/v1/pois", pois); w.Code != 200 {
			return nil, nil, fmt.Errorf("probe POIs: status %d: %s", w.Code, w.Body)
		}
	}
	return srv, h, nil
}

const (
	probeRequests = 20000 // hit-path calls per serve_batch_hit layer
	probeBatches  = 64    // handler-direct 64-item miss batches
	probeMisses   = 2000  // miss-path calls per serve_batch_miss layer
	probeInstalls = 3
	probeMoves    = 8 // 512-move batches through pipeline and chain
)

func serviceRequest(r location.Record, params ...lbs.Param) lbs.ServiceRequest {
	return lbs.ServiceRequest{UserID: r.UserID, Loc: r.Loc, Params: params}
}

// ---- serve_batch_hit ---------------------------------------------------

func (w *serveBatchHit) probe(p *probe) error {
	srv, h, err := newProbeServer(w.snapshot, w.pois)
	if err != nil {
		return err
	}
	for s := range w.reqs { // the warm-up pass
		if rw := handlerDo(h, "POST", "/v1/request", w.reqs[s]); rw.Code != 200 {
			return fmt.Errorf("probe warm-up: status %d: %s", rw.Code, rw.Body)
		}
	}
	slot := w.drawn
	// Three ways of making the same handler call — without the recorder,
	// with it, and with it but request tracing off — taken in alternating
	// blocks, so that what the server learns as it goes (the auditor's
	// per-cloak memo fills over tens of thousands of requests) is spread
	// over the three evenly. Recorder on against off is what the traced
	// run itself costs; tracing on against off is the server's tracing.
	const block = 500
	var wall [2]time.Duration // tracing on: [0] without the recorder, [1] with it
	var mallocs, bytes uint64
	var ms runtime.MemStats
	for b, i := 0, 0; b < 3*probeRequests/block; b++ {
		mode := b % 3
		rec, name := p.rec, "server.request"
		switch mode {
		case 0:
			rec = nil
		case 2:
			name = "server.request_notrace"
			srv.SetRequestTracing(false)
		}
		runtime.ReadMemStats(&ms)
		m0, b0, t0 := ms.Mallocs, ms.TotalAlloc, time.Now()
		for end := i + block; i < end; i++ {
			id := rec.begin(name)
			handlerDo(h, "POST", "/v1/request", w.reqs[slot(i)])
			rec.end(id)
		}
		if mode < 2 {
			wall[mode] += time.Since(t0)
		}
		if mode == 1 {
			runtime.ReadMemStats(&ms)
			mallocs, bytes = mallocs+ms.Mallocs-m0, bytes+ms.TotalAlloc-b0
		}
		srv.SetRequestTracing(true)
	}
	p.set("probe.span_overhead_pct", 100*float64(wall[1]-wall[0])/float64(wall[0]))
	p.set("server.request_allocs", float64(mallocs)/probeRequests)
	p.set("server.request_bytes", float64(bytes)/probeRequests)

	provider := lbs.NewPOIProvider(w.o.store)
	csp := lbs.NewCSP(w.o.policy, provider)
	cat := lbs.Param{Name: "cat", Value: nnCategory}
	srs := make([]lbs.ServiceRequest, len(w.slots))
	for s, idx := range w.slots {
		srs[s] = serviceRequest(w.o.db.At(idx), cat)
		if _, _, err := csp.Serve(srs[s]); err != nil {
			return fmt.Errorf("probe CSP warm-up: %w", err)
		}
	}
	hitAllocs, _ := counted(p.rec, "lbs.csp_serve_hit", probeRequests, func(i int) {
		_, _, _ = csp.Serve(srs[slot(i)]) // warmed above; cannot fail
	})
	p.set("lbs.csp_serve_hit_allocs", hitAllocs)
	counted(p.rec, "lbs.anonymize", probeRequests, func(i int) {
		_, _ = w.o.policy.Anonymize(uint64(i), srs[slot(i)])
	})
	aud := audit.New(metrics.NewRegistry(), audit.Options{Rate: audit.DefaultRate})
	ctx := context.Background()
	counted(p.rec, "audit.observe_request", probeRequests, func(i int) {
		aud.MaybeObserveRequest(ctx, engine.DefaultName, w.o.policy, w.o.policy.CloakAt(w.slots[slot(i)]), anonK)
	})

	t := p.rec.byLayer()
	on, off, hit := t["server.request"].meanNs(), t["server.request_notrace"].meanNs(), t["lbs.csp_serve_hit"].meanNs()
	p.set("server.request_ns", on)
	p.set("server.request_notrace_ns", off)
	p.set("obs.request_tracing_pct", 100*(on-off)/off)
	p.set("lbs.csp_serve_hit_ns", hit)
	p.set("server.request_self_ns", on-hit)
	p.set("lbs.anonymize_ns", t["lbs.anonymize"].meanNs())
	p.set("audit.observe_request_ns", t["audit.observe_request"].meanNs())
	p.set("http.loopback_self_us", p.res.Detail["single_request_p50_ms"]*1000-on/1000)
	p.cacheCounters()
	return nil
}

// cacheCounters reports the child's CSP counters over the end-to-end
// window: a workload drift alarm, about 1 on the hit path and 0 on the
// miss path.
func (p *probe) cacheCounters() {
	if lookups := p.stats.CacheHits + p.stats.CacheMisses; lookups > 0 {
		p.set("lbs.csp_hit_ratio", float64(p.stats.CacheHits)/float64(lookups))
	}
	p.set("lbs.csp_coalesced", float64(p.stats.Coalesced))
}

// ---- serve_batch_miss ---------------------------------------------------

func (w *serveBatchMiss) probe(p *probe) error {
	_, h, err := newProbeServer(w.snapshot, w.pois)
	if err != nil {
		return err
	}
	var failed error
	allocs, _ := counted(p.rec, "server.batch64", probeBatches, func(i int) {
		if rw := handlerDo(h, "POST", "/v1/request/batch", w.batchBody(i)); rw.Code != 200 && failed == nil {
			failed = fmt.Errorf("probe batch: status %d: %s", rw.Code, rw.Body)
		}
	})
	if failed != nil {
		return failed
	}
	p.set("server.batch64_allocs", allocs)

	// The miss path's layers, each on its own fresh keys: items numbered
	// after the handler's batches, so no key repeats within a layer.
	provider := lbs.NewPOIProvider(w.o.store)
	csp := lbs.NewCSP(w.o.policy, provider)
	request := func(i int) (lbs.ServiceRequest, string, float64) {
		idx, cat, radius := w.item(probeBatches+i/batchItems, i%batchItems)
		return serviceRequest(w.o.db.At(idx), lbs.Param{Name: "cat", Value: cat},
			lbs.Param{Name: "range", Value: string(radius.append(nil))}), cat, radius.meters()
	}
	missAllocs, _ := counted(p.rec, "lbs.csp_serve_miss", probeMisses, func(i int) {
		sr, _, _ := request(i)
		if _, _, err := csp.Serve(sr); err != nil && failed == nil {
			failed = err
		}
	})
	if failed != nil {
		return fmt.Errorf("probe CSP.Serve: %w", failed)
	}
	p.set("lbs.csp_serve_miss_allocs", missAllocs)
	counted(p.rec, "lbs.anonymize", probeMisses, func(i int) {
		sr, _, _ := request(i)
		_, _ = w.o.policy.Anonymize(uint64(i), sr)
	})
	counted(p.rec, "lbs.provider_answer", probeMisses, func(i int) {
		sr, _, _ := request(i)
		_, _ = provider.Answer(lbs.AnonymizedRequest{RID: uint64(i), Cloak: w.o.policy.CloakAt(w.o.db.Index(sr.UserID)), Params: sr.Params})
	})
	counted(p.rec, "lbs.poi_in_range", probeMisses, func(i int) {
		sr, cat, radius := request(i)
		w.o.store.CandidateInRange(w.o.policy.CloakAt(w.o.db.Index(sr.UserID)), radius, cat)
	})
	counted(p.rec, "lbs.poi_nearest", probeMisses, func(i int) {
		sr, cat, _ := request(i)
		w.o.store.CandidateNearest(w.o.policy.CloakAt(w.o.db.Index(sr.UserID)), cat)
	})

	t := p.rec.byLayer()
	p.set("server.batch64_ns", t["server.batch64"].meanNs())
	p.set("lbs.csp_serve_miss_ns", t["lbs.csp_serve_miss"].meanNs())
	p.set("lbs.anonymize_ns", t["lbs.anonymize"].meanNs())
	p.set("lbs.provider_answer_ns", t["lbs.provider_answer"].meanNs())
	p.set("lbs.poi_in_range_ns", t["lbs.poi_in_range"].meanNs())
	p.set("lbs.poi_nearest_ns", t["lbs.poi_nearest"].meanNs())
	p.cacheCounters()
	return nil
}

// ---- install_repeat -----------------------------------------------------

// probe replays an install twice over: once through the handler, as the
// server runs it, and once call by call under an "install.replay" span
// whose children are the layers. What the handler takes beyond the
// replayed layers — JSON decoding and glue — is its self time.
func (w *installRepeat) probe(p *probe) error {
	srv := server.New()
	h := srv.Handler()
	aud := audit.New(metrics.NewRegistry(), audit.Options{Rate: audit.DefaultRate})
	ctx := context.Background()
	var ms runtime.MemStats
	for i := 0; i < probeInstalls; i++ {
		o, body := w.oracles[i%2], w.bodies[i%2]
		runtime.ReadMemStats(&ms)
		gcBefore := ms.NumGC
		id := p.rec.begin("server.snapshot")
		rw := handlerDo(h, "POST", "/v1/snapshot", body)
		p.rec.end(id)
		if rw.Code != 200 {
			return fmt.Errorf("probe install: status %d: %s", rw.Code, rw.Body)
		}
		runtime.ReadMemStats(&ms)
		p.set("runtime.gc_cycles", float64(ms.NumGC-gcBefore))
		p.set("runtime.heap_peak_mb", float64(ms.HeapSys)/(1<<20))

		records := o.db.Records()
		replay := p.rec.begin("install.replay")
		id = p.rec.begin("location.add")
		db := location.New(len(records))
		for _, r := range records {
			if err := db.Add(r.UserID, r.Loc); err != nil {
				return err
			}
		}
		p.rec.end(id)
		id = p.rec.begin("tree.build")
		t, err := tree.Build(db.Points(), bounds(), tree.Options{MinCountToSplit: anonK})
		p.rec.end(id)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id = p.rec.begin("core.combine")
		m, err := core.NewMatrix(t, anonK, core.Options{})
		p.rec.end(id)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		id = p.rec.begin("core.extract")
		cloaks, err := m.Extract()
		p.rec.end(id)
		if err != nil {
			return err
		}
		id = p.rec.begin("lbs.new_assignment")
		policy, err := lbs.NewAssignment(db, cloaks)
		p.rec.end(id)
		if err != nil {
			return err
		}
		id = p.rec.begin("audit.observe_policy")
		aud.ObservePolicy(ctx, engine.DefaultName, policy, anonK)
		p.rec.end(id)
		p.rec.end(replay)

		// The two attacker audits ObservePolicy runs, on their own.
		id = p.rec.begin("attacker.audit_aware")
		attacker.Audit(policy, anonK, attacker.PolicyAware)
		p.rec.end(id)
		id = p.rec.begin("attacker.audit_unaware")
		attacker.Audit(policy, anonK, attacker.PolicyUnaware)
		p.rec.end(id)

		if i == 0 { // counts of the seed's own snapshot
			rows := 0
			t.PostOrder(func(id tree.NodeID) {
				us, _ := m.Row(id)
				rows += len(us)
			})
			p.set("tree.nodes", float64(t.NumNodes()))
			p.set("core.rows", float64(rows))
			p.set("core.combine_allocs", float64(after.Mallocs-before.Mallocs))
		}
	}
	t := p.rec.byLayer()
	p.set("server.snapshot_ms", t["server.snapshot"].medianMs())
	p.set("server.snapshot_self_ms", selfMs(t["server.snapshot"], t["install.replay"]))
	p.res.detail("server.children_share", t["install.replay"].childrenMs()/t["server.snapshot"].medianMs())
	for _, name := range []string{"location.add", "tree.build", "core.combine", "core.extract", "lbs.new_assignment",
		"audit.observe_policy", "attacker.audit_aware", "attacker.audit_unaware"} {
		p.set(name+"_ms", t[name].medianMs())
	}
	return nil
}

// ---- moves_publish ------------------------------------------------------

// probe applies the same move batches twice: through an in-process
// motion.Pipeline with its default Config, timed from the first Enqueue
// to the epoch that publishes the batch, and call by call through the
// chain the pipeline runs (move, update, extract delta, apply delta,
// verify). The chain's calls are the children motion.batch_ms is
// explained by; what they leave is its self time.
func (w *movesPublish) probe(p *probe) error {
	w.resetMoves()
	batches := make([][]plannedMove, probeMoves)
	for b := range batches {
		batches[b] = w.nextMoves()
	}
	ctx := context.Background()

	pl, err := motion.New(w.o.db.Clone(), bounds(), motion.Config{K: anonK})
	if err != nil {
		return err
	}
	defer pl.Close(ctx)
	var sent int64
	for _, batch := range batches {
		epoch := pl.Epoch()
		id := p.rec.begin("motion.batch")
		for _, mv := range batch {
			e := p.rec.begin("motion.enqueue")
			err := pl.Enqueue(ctx, motion.Update{UserID: w.o.db.At(mv.idx).UserID, X: float64(mv.to.X), Y: float64(mv.to.Y)})
			p.rec.end(e)
			if err != nil {
				return fmt.Errorf("probe enqueue: %w", err)
			}
		}
		sent += int64(len(batch))
		for deadline := time.Now().Add(60 * time.Second); pl.Epoch() == epoch || pl.Stats().Moves < sent; {
			if time.Now().After(deadline) {
				return fmt.Errorf("probe: batch not published after 60s")
			}
			time.Sleep(100 * time.Microsecond)
		}
		p.rec.end(id)
		// Let the loop return to its select and consume the flush tick
		// that came due during the apply, so it cannot split the next batch.
		time.Sleep(5 * time.Millisecond)
	}
	st := pl.Stats()

	db := w.o.db.Clone()
	anon, err := core.NewAnonymizer(db, bounds(), core.AnonymizerOptions{K: anonK})
	if err != nil {
		return err
	}
	policy, err := anon.Policy() // also the baseline ExtractDelta diffs against
	if err != nil {
		return err
	}
	pub, err := lbs.NewAssignment(db.Clone(), policy.Cloaks())
	if err != nil {
		return err
	}
	var rowsRecomputed, rowsVisited, cloaksChanged int
	for _, batch := range batches {
		moves := make([]lbs.Move, len(batch))
		for j, mv := range batch {
			moves[j] = lbs.Move{Index: mv.idx, From: db.At(mv.idx).Loc, To: mv.to}
		}
		chain := p.rec.begin("motion.chain")
		for _, mv := range batch {
			id := p.rec.begin("core.move")
			err := anon.Move(mv.idx, mv.to)
			p.rec.end(id)
			if err != nil {
				return err
			}
		}
		id := p.rec.begin("core.update")
		rowsRecomputed += anon.Refresh()
		p.rec.end(id)
		id = p.rec.begin("core.extract_delta")
		changes, visited, err := anon.Matrix().ExtractDelta()
		p.rec.end(id)
		if err != nil {
			return err
		}
		rowsVisited += visited
		cloaksChanged += len(changes)
		id = p.rec.begin("lbs.apply_delta")
		next, err := pub.ApplyDelta(moves, changes)
		p.rec.end(id)
		if err != nil {
			return err
		}
		id = p.rec.begin("verify.policy")
		rep := verify.Policy(next, anonK)
		p.rec.end(id)
		p.rec.end(chain)
		if !rep.OK() {
			return fmt.Errorf("probe: verify.Policy: %s", rep.Problems[0])
		}
		id = p.rec.begin("verify.delta")
		rep = verify.Delta(next, anonK)
		p.rec.end(id)
		if !rep.OK() {
			return fmt.Errorf("probe: verify.Delta: %s", rep.Problems[0])
		}
		pub = next
	}

	t := p.rec.byLayer()
	chainMs := t["motion.chain"].childrenMs()
	p.set("motion.batch_ms", t["motion.batch"].medianMs())
	p.set("motion.batch_self_ms", selfMs(t["motion.batch"], t["motion.chain"]))
	p.set("motion.enqueue_ns", t["motion.enqueue"].meanNs())
	p.set("core.move_us", t["core.move"].meanNs()/1000)
	p.set("core.update_ms", t["core.update"].medianMs())
	p.set("core.extract_delta_ms", t["core.extract_delta"].medianMs())
	p.set("lbs.apply_delta_ms", t["lbs.apply_delta"].medianMs())
	p.set("verify.policy_ms", t["verify.policy"].medianMs())
	p.set("verify.delta_ms", t["verify.delta"].medianMs())
	p.set("core.rows_recomputed", float64(rowsRecomputed))
	p.set("core.rows_visited", float64(rowsVisited))
	p.set("lbs.cloaks_changed", float64(cloaksChanged))
	// Fallbacks and rejections of the child over the end-to-end window,
	// plus the probe pipeline's own: any is a failure signal.
	p.set("motion.fallbacks", float64(p.stats.Fallbacks+st.Fallbacks))
	p.set("motion.rejected", float64(p.stats.Rejected+st.Rejected))
	p.res.detail("motion.children_share", chainMs/t["motion.batch"].medianMs())

	return nil
}
