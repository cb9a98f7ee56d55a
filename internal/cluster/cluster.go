// Package cluster implements the paper's multi-server deployment over the
// wire: a coordinator partitions the map into jurisdictions with the
// greedy rule of Section V, shards the location snapshot across a pool of
// anonymization servers (the HTTP service of internal/server, one per
// jurisdiction), runs them concurrently, and assembles the master policy
// from the per-server checkpoints.
//
// This is the distributed counterpart of internal/parallel, which runs
// the same decomposition in-process.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"policyanon/internal/audit"
	"policyanon/internal/checkpoint"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/obs"
	"policyanon/internal/obs/flight"
	"policyanon/internal/parallel"
	"policyanon/internal/verify"
)

// shardAttempts is how many times one shard RPC sequence is tried before
// the whole Anonymize call fails; only transport-level failures are
// retried (a rejected snapshot is deterministic and retried never).
const shardAttempts = 2

// Coordinator drives a pool of anonymization servers.
type Coordinator struct {
	workers   []string // base URLs, e.g. "http://10.0.0.7:8080"
	client    *http.Client
	reg       *metrics.Registry
	engine    string // engine name shipped with shard snapshots; "" = worker default
	dpWorkers int    // intra-tree DP worker budget per shard; 0 = worker default

	// routes is the serving-side routing table built by the last
	// successful Anonymize: which worker holds which jurisdiction's
	// shard, in jurisdiction order. ServeBatch and SeedPOIs consult it.
	routeMu sync.RWMutex
	routes  []route
}

// route maps one jurisdiction to the worker holding its shard.
type route struct {
	jur    geo.Rect
	worker string
}

// New returns a coordinator over the given worker base URLs. client may be
// nil for a default with a 60 s timeout.
func New(workers []string, client *http.Client) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &Coordinator{
		workers: append([]string(nil), workers...),
		client:  client,
		reg:     metrics.NewRegistry(),
	}, nil
}

// UseEngine selects the anonymization engine every worker runs, by
// registry name; the empty string restores each worker's own default. The
// name is validated by the workers (they may register engines this binary
// does not link), so no local check is performed.
func (c *Coordinator) UseEngine(name string) { c.engine = name }

// Engine returns the engine name shipped with shard snapshots ("" when
// workers use their own default).
func (c *Coordinator) Engine() string { return c.engine }

// UseWorkers sets the intra-tree DP worker budget shipped with every
// shard snapshot (the "workers" engine option, core.Options.Workers on
// the worker's machine). Each shard is a whole jurisdiction on its own
// server, so the budget is per shard, not divided; 0 restores the
// workers' own default (their automatic GOMAXPROCS policy).
func (c *Coordinator) UseWorkers(n int) { c.dpWorkers = n }

// Workers returns the per-shard DP worker budget (0 = worker default).
func (c *Coordinator) Workers() int { return c.dpWorkers }

// Metrics exposes the coordinator's registry: per-worker shard wall-time
// histograms ("cluster_shard:<worker>"), retry counters
// ("cluster_retries:<worker>") and failover counts ("cluster_failovers").
func (c *Coordinator) Metrics() *metrics.Registry { return c.reg }

// NumWorkers returns the pool size.
func (c *Coordinator) NumWorkers() int { return len(c.workers) }

// Healthy probes every worker's liveness (/healthz?probe=live) and
// returns the unreachable ones. Liveness, not readiness, is the right
// probe here: a fresh worker is "starting" (503 on bare /healthz) until
// the coordinator itself sends it a shard.
func (c *Coordinator) Healthy(ctx context.Context) (down []string) {
	for _, w := range c.workers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w+"/healthz?probe=live", nil)
		if err != nil {
			down = append(down, w)
			continue
		}
		resp, err := c.client.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			down = append(down, w)
		}
		if err == nil {
			resp.Body.Close()
		}
	}
	return down
}

// AuditReport fetches every worker's /v1/audit privacy report and merges
// them into one fleet-wide view (audit.Merge semantics: exact counts,
// breaches, and min/max; count-weighted percentile approximation).
// Unreachable workers fail the call — a fleet privacy report with silent
// holes would overstate the guarantee.
func (c *Coordinator) AuditReport(ctx context.Context) (audit.Report, error) {
	reports := make([]audit.Report, 0, len(c.workers))
	for _, w := range c.workers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w+"/v1/audit", nil)
		if err != nil {
			return audit.Report{}, err
		}
		forwardRequestID(ctx, req)
		resp, err := c.client.Do(req)
		if err != nil {
			return audit.Report{}, fmt.Errorf("cluster: audit fetch %s: %w", w, err)
		}
		var rep audit.Report
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			return audit.Report{}, fmt.Errorf("cluster: audit decode %s: %w", w, err)
		}
		if resp.StatusCode != http.StatusOK {
			return audit.Report{}, fmt.Errorf("cluster: audit fetch %s: %s", w, resp.Status)
		}
		// A single-server report leaves Worker empty; the coordinator knows
		// which shard it fetched from, so stamp the URL before merging —
		// the merged report then pins every shard's ledger chain head.
		for i := range rep.LedgerRoots {
			if rep.LedgerRoots[i].Worker == "" {
				rep.LedgerRoots[i].Worker = w
			}
		}
		reports = append(reports, rep)
	}
	return audit.Merge(reports...), nil
}

// forwardRequestID propagates the coordinator's request ID — and, when
// the call tree runs inside a trace capture, its trace context — to a
// worker RPC. The worker adopts the X-Trace-ID as its own capture
// identity (and always retains the resulting trace, because propagated
// legs must be fetchable later), and records X-Parent-Span as the
// coordinator-side span its call tree hangs under, which is what lets
// StitchTrace reassemble one tree from many processes.
func forwardRequestID(ctx context.Context, req *http.Request) {
	if rid := audit.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	if cap := obs.CaptureFrom(ctx); cap != nil {
		req.Header.Set(flight.TraceIDHeader, cap.TraceID())
		if sp := obs.Current(ctx); sp != nil {
			req.Header.Set(flight.ParentSpanHeader, strconv.FormatUint(sp.ID(), 10))
		}
	}
}

// userJSON mirrors the server's wire format.
type userJSON struct {
	ID string `json:"id"`
	X  int32  `json:"x"`
	Y  int32  `json:"y"`
}

// Anonymize shards the snapshot over the worker pool and returns the
// master policy. bounds must be the square map; jurisdictions are
// assigned to workers round-robin (at most one jurisdiction per worker:
// the partitioner is asked for exactly len(workers) jurisdictions).
func (c *Coordinator) Anonymize(ctx context.Context, db *location.DB, bounds geo.Rect, k int) (*lbs.Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: k must be >= 1, got %d", k)
	}
	ctx, csp := obs.Start(ctx, "cluster.anonymize")
	if csp != nil {
		csp.SetInt("users", int64(db.Len()))
		csp.SetInt("k", int64(k))
		csp.SetInt("workers", int64(len(c.workers)))
		defer csp.End()
	}
	jur, err := parallel.PartitionContext(ctx, db, bounds, k, len(c.workers))
	if err != nil {
		return nil, err
	}
	// Shard the users by jurisdiction.
	shards := make([][]userJSON, len(jur))
	for i := 0; i < db.Len(); i++ {
		rec := db.At(i)
		placed := false
		for j, r := range jur {
			if r.Contains(rec.Loc) {
				shards[j] = append(shards[j], userJSON{ID: rec.UserID, X: rec.Loc.X, Y: rec.Loc.Y})
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("cluster: location %v outside every jurisdiction", rec.Loc)
		}
	}
	// Each jurisdiction runs on its own worker; empty ones are skipped.
	type result struct {
		worker string
		state  *checkpoint.State
		err    error
	}
	results := make([]result, len(jur))
	var wg sync.WaitGroup
	for j := range jur {
		if len(shards[j]) == 0 {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			worker := c.workers[j%len(c.workers)]
			sctx, ssp := obs.StartLane(ctx, "cluster.shard")
			if ssp != nil {
				ssp.SetAttr("worker", worker)
				ssp.SetInt("jurisdiction", int64(j))
				ssp.SetInt("users", int64(len(shards[j])))
			}
			start := time.Now()
			var st *checkpoint.State
			var err error
			retries := 0
			for attempt := 1; ; attempt++ {
				st, err = c.anonymizeShard(sctx, worker, jur[j], k, shards[j])
				if err == nil || attempt >= shardAttempts ||
					!errors.Is(err, errTransient) || sctx.Err() != nil {
					break
				}
				retries++
				c.reg.Counter("cluster_retries:" + worker).Inc()
			}
			c.reg.Histogram("cluster_shard:" + worker).Observe(time.Since(start))
			c.reg.Counter("cluster_shards:" + worker).Inc()
			if ssp != nil {
				ssp.SetInt("retries", int64(retries))
				if err != nil {
					ssp.SetAttr("error", err.Error())
				}
				ssp.End()
			}
			results[j] = result{worker: worker, state: st, err: err}
		}(j)
	}
	wg.Wait()
	cloaks := make([]geo.Rect, db.Len())
	assigned := make([]bool, db.Len())
	for j, res := range results {
		if len(shards[j]) == 0 {
			continue
		}
		if res.err != nil {
			return nil, fmt.Errorf("cluster: worker %s jurisdiction %d: %w", res.worker, j, res.err)
		}
		sub := res.state
		for i := 0; i < sub.DB.Len(); i++ {
			rec := sub.DB.At(i)
			gi := db.Index(rec.UserID)
			if gi < 0 {
				return nil, fmt.Errorf("cluster: worker returned unknown user %q", rec.UserID)
			}
			cloaks[gi] = sub.Policy.CloakAt(i)
			assigned[gi] = true
		}
	}
	for i, ok := range assigned {
		if !ok {
			return nil, fmt.Errorf("cluster: user %q received no cloak", db.At(i).UserID)
		}
	}
	policy, err := lbs.NewAssignment(db, cloaks)
	if err != nil {
		return nil, err
	}
	// Verify rather than trust: the master policy assembled from remote
	// workers must still pass Definition 6 verification before it is
	// handed to a CSP. Masking and policy-unaware anonymity are required
	// unconditionally; policy-aware anonymity only when the selected
	// engine claims it (k-inside engines breach it by construction).
	_, vsp := obs.Start(ctx, "cluster.verify")
	rep := verify.Policy(policy, k)
	vsp.End()
	wantAware := true
	if c.engine != "" {
		if info, ok := engine.InfoOf(c.engine); ok {
			wantAware = info.PolicyAware
		}
	}
	if !rep.Masking || !rep.PolicyUnaware || (wantAware && !rep.PolicyAware) {
		return nil, fmt.Errorf("cluster: assembled policy failed verification: %s", rep.Problems[0])
	}
	// The shards are installed and verified: record which worker owns
	// which jurisdiction so the serving path can route requests.
	routes := make([]route, 0, len(jur))
	for j := range jur {
		if len(shards[j]) == 0 {
			continue
		}
		routes = append(routes, route{jur: jur[j], worker: c.workers[j%len(c.workers)]})
	}
	c.routeMu.Lock()
	c.routes = routes
	c.routeMu.Unlock()
	return policy, nil
}

// errTransient marks transport-level shard failures that a retry against
// the same worker can plausibly fix (connection resets, timeouts), as
// opposed to deterministic rejections (bad snapshot, decode failures).
var errTransient = errors.New("cluster: transient transport error")

// transient wraps err as retryable.
func transient(err error) error {
	return fmt.Errorf("%w: %w", errTransient, err)
}

// anonymizeShard installs one jurisdiction's shard on a worker and fetches
// the resulting policy as a checkpoint.
func (c *Coordinator) anonymizeShard(ctx context.Context, worker string, jur geo.Rect, k int, users []userJSON) (*checkpoint.State, error) {
	// The worker anonymizes over the jurisdiction's bounding square
	// anchored at its origin (matching parallel.squareOver); since the
	// server's map is [0,side)^2 we translate coordinates into
	// jurisdiction-local space and translate the cloaks back.
	side := squareSide(jur)
	local := make([]userJSON, len(users))
	for i, u := range users {
		local[i] = userJSON{ID: u.ID, X: u.X - jur.MinX, Y: u.Y - jur.MinY}
	}
	snap := map[string]any{"k": k, "mapSide": side, "users": local}
	if c.engine != "" {
		snap["engine"] = c.engine
	}
	if c.dpWorkers != 0 {
		snap["opts"] = map[string]string{"workers": strconv.Itoa(c.dpWorkers)}
	}
	body, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/snapshot", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	forwardRequestID(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("snapshot rejected: %s: %s", resp.Status, msg)
	}
	io.Copy(io.Discard, resp.Body)

	ckReq, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	forwardRequestID(ctx, ckReq)
	ckResp, err := c.client.Do(ckReq)
	if err != nil {
		return nil, transient(err)
	}
	defer ckResp.Body.Close()
	if ckResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("checkpoint fetch failed: %s", ckResp.Status)
	}
	st, err := checkpoint.Load(ckResp.Body)
	if err != nil {
		return nil, err
	}
	// Translate cloaks back into global coordinates.
	global := location.New(st.DB.Len())
	cloaks := make([]geo.Rect, st.DB.Len())
	for i := 0; i < st.DB.Len(); i++ {
		rec := st.DB.At(i)
		if err := global.Add(rec.UserID, geo.Point{X: rec.Loc.X + jur.MinX, Y: rec.Loc.Y + jur.MinY}); err != nil {
			return nil, err
		}
		c := st.Policy.CloakAt(i)
		cloaks[i] = geo.Rect{
			MinX: c.MinX + jur.MinX, MinY: c.MinY + jur.MinY,
			MaxX: c.MaxX + jur.MinX, MaxY: c.MaxY + jur.MinY,
		}
	}
	policy, err := lbs.NewAssignment(global, cloaks)
	if err != nil {
		return nil, err
	}
	return &checkpoint.State{K: st.K, Bounds: st.Bounds, DB: global, Policy: policy}, nil
}

// ErrDegraded is returned by AnonymizeWithFailover when some workers were
// skipped; the policy is still valid (their jurisdictions were re-routed).
var ErrDegraded = errors.New("cluster: degraded: some workers unavailable")

// AnonymizeWithFailover is Anonymize with liveness pre-checks: jurisdictions
// of unreachable workers are re-routed round-robin to healthy ones. The
// returned error wraps ErrDegraded when failover occurred and names the
// workers that were skipped, so operators can act on the error alone.
func (c *Coordinator) AnonymizeWithFailover(ctx context.Context, db *location.DB, bounds geo.Rect, k int) (*lbs.Assignment, error) {
	down := c.Healthy(ctx)
	if len(down) == 0 {
		return c.Anonymize(ctx, db, bounds, k)
	}
	bad := make(map[string]bool, len(down))
	for _, w := range down {
		bad[w] = true
	}
	var healthy []string
	for _, w := range c.workers {
		if !bad[w] {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) == 0 {
		return nil, fmt.Errorf("cluster: all %d workers down: %s",
			len(c.workers), strings.Join(down, ", "))
	}
	for _, w := range down {
		c.reg.Counter("cluster_down:" + w).Inc()
	}
	c.reg.Counter("cluster_failovers").Inc()
	sub := &Coordinator{workers: healthy, client: c.client, reg: c.reg, engine: c.engine}
	pol, err := sub.Anonymize(ctx, db, bounds, k)
	if err != nil {
		return nil, err
	}
	// Adopt the degraded deployment's routing table: requests must go to
	// the healthy workers that actually hold the shards.
	sub.routeMu.RLock()
	routes := sub.routes
	sub.routeMu.RUnlock()
	c.routeMu.Lock()
	c.routes = routes
	c.routeMu.Unlock()
	return pol, fmt.Errorf("%w: %d of %d workers down: %s",
		ErrDegraded, len(down), len(c.workers), strings.Join(down, ", "))
}

// squareSide is the side of a jurisdiction's bounding square, the map
// side its worker operates in (matching parallel.squareOver).
func squareSide(jur geo.Rect) int64 {
	side := jur.Width()
	if jur.Height() > side {
		side = jur.Height()
	}
	return side
}

// snapshotRoutes returns the routing table from the last successful
// Anonymize, or an error before any deployment exists.
func (c *Coordinator) snapshotRoutes() ([]route, error) {
	c.routeMu.RLock()
	routes := c.routes
	c.routeMu.RUnlock()
	if len(routes) == 0 {
		return nil, fmt.Errorf("cluster: no deployment: Anonymize must succeed before serving")
	}
	return routes, nil
}

// poiJSON mirrors the server's POI wire format.
type poiJSON struct {
	ID       string `json:"id"`
	X        int32  `json:"x"`
	Y        int32  `json:"y"`
	Category string `json:"category"`
}

// SeedPOIs distributes the global POI set across the worker pool: each
// worker receives the points of interest inside its jurisdiction,
// translated into jurisdiction-local coordinates, via POST /v1/pois.
// Every routed worker is seeded — an empty jurisdiction-local store is
// still installed so the worker's serving path comes up. POIs outside
// every jurisdiction are skipped; the count of installed POIs is
// returned.
func (c *Coordinator) SeedPOIs(ctx context.Context, pois []lbs.POI) (int, error) {
	routes, err := c.snapshotRoutes()
	if err != nil {
		return 0, err
	}
	groups := make([][]poiJSON, len(routes))
	installed := 0
	for _, p := range pois {
		for j, rt := range routes {
			if rt.jur.Contains(p.Loc) {
				groups[j] = append(groups[j], poiJSON{
					ID: p.ID, X: p.Loc.X - rt.jur.MinX, Y: p.Loc.Y - rt.jur.MinY,
					Category: p.Category,
				})
				installed++
				break
			}
		}
	}
	for j, rt := range routes {
		if groups[j] == nil {
			groups[j] = []poiJSON{}
		}
		body, err := json.Marshal(map[string]any{"mapSide": squareSide(rt.jur), "pois": groups[j]})
		if err != nil {
			return 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.worker+"/v1/pois", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		forwardRequestID(ctx, req)
		resp, err := c.client.Do(req)
		if err != nil {
			return 0, fmt.Errorf("cluster: seed POIs on %s: %w", rt.worker, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("cluster: seed POIs on %s: %s", rt.worker, resp.Status)
		}
	}
	return installed, nil
}

// ServeResult is one routed request's outcome, at the submitting index.
// A per-request failure (unknown user, spoofed location, unroutable
// coordinates) sets Err and leaves its neighbours intact, mirroring the
// per-item semantics of the workers' batch endpoint.
type ServeResult struct {
	Worker     string
	Cloak      geo.Rect
	Candidates []lbs.POI
	Err        error
}

// serviceRequestJSON and batchItemJSON mirror the server's batch wire
// format (server.ServiceRequestJSON in, the items of internal/server's
// appendItem out).
type serviceRequestJSON struct {
	User   string      `json:"user"`
	X      int32       `json:"x"`
	Y      int32       `json:"y"`
	Params []lbs.Param `json:"params,omitempty"`
}

type batchItemJSON struct {
	RID   uint64 `json:"rid"`
	Cloak *struct {
		MinX int32 `json:"minX"`
		MinY int32 `json:"minY"`
		MaxX int32 `json:"maxX"`
		MaxY int32 `json:"maxY"`
	} `json:"cloak"`
	Candidates []poiJSON `json:"candidates"`
	Error      string    `json:"error"`
}

// ServeBatch fans a batch of user requests out over the deployment: each
// request is routed to the worker whose jurisdiction contains the user
// (coordinates translated into the jurisdiction's local frame), the
// per-worker groups run as concurrent POST /v1/request/batch calls — one
// round trip and one snapshot acquisition per worker, with coalescing
// inside each worker's CSP — and the replies merge back in submission
// order with cloaks and candidates translated to global coordinates.
//
// Workers must have been seeded with POIs (SeedPOIs) after the last
// Anonymize. A worker-level transport failure fails the whole call, like
// Anonymize; request-level failures surface per item in ServeResult.Err.
func (c *Coordinator) ServeBatch(ctx context.Context, reqs []lbs.ServiceRequest) ([]ServeResult, error) {
	routes, err := c.snapshotRoutes()
	if err != nil {
		return nil, err
	}
	ctx, sp := obs.Start(ctx, "cluster.serve_batch")
	if sp != nil {
		sp.SetInt("requests", int64(len(reqs)))
		defer sp.End()
	}
	results := make([]ServeResult, len(reqs))
	groups := make([][]int, len(routes))
	for i, sr := range reqs {
		placed := false
		for j, rt := range routes {
			if rt.jur.Contains(sr.Loc) {
				groups[j] = append(groups[j], i)
				placed = true
				break
			}
		}
		if !placed {
			results[i].Err = fmt.Errorf("cluster: location %v outside every jurisdiction", sr.Loc)
		}
	}
	errs := make([]error, len(routes))
	var wg sync.WaitGroup
	for j := range routes {
		if len(groups[j]) == 0 {
			continue
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			// A lane span per shard leg: it is the parent the worker's
			// remote call tree stitches under, and its lane keeps the
			// concurrent legs on separate rows in Chrome dumps.
			sctx, ssp := obs.StartLane(ctx, "cluster.serve_shard")
			ssp.SetAttr("worker", routes[j].worker)
			ssp.SetInt("requests", int64(len(groups[j])))
			start := time.Now()
			errs[j] = c.serveShard(sctx, routes[j], groups[j], reqs, results)
			ssp.End()
			c.reg.Histogram("cluster_serve:" + routes[j].worker).Observe(time.Since(start))
			c.reg.Counter("cluster_batches:" + routes[j].worker).Inc()
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %s batch: %w", routes[j].worker, err)
		}
	}
	return results, nil
}

// serveShard posts one worker's share of a batch and writes each item's
// translated result back at its original index. idx holds the global
// indices of this worker's requests, in order.
func (c *Coordinator) serveShard(ctx context.Context, rt route, idx []int, reqs []lbs.ServiceRequest, results []ServeResult) error {
	wire := make([]serviceRequestJSON, len(idx))
	for n, i := range idx {
		sr := reqs[i]
		wire[n] = serviceRequestJSON{
			User: sr.UserID,
			X:    sr.Loc.X - rt.jur.MinX, Y: sr.Loc.Y - rt.jur.MinY,
			Params: sr.Params,
		}
	}
	body, err := json.Marshal(map[string]any{"requests": wire})
	if err != nil {
		return err
	}
	var items []batchItemJSON
	for attempt := 1; ; attempt++ {
		items, err = c.postBatch(ctx, rt.worker, body)
		if err == nil || attempt >= shardAttempts ||
			!errors.Is(err, errTransient) || ctx.Err() != nil {
			break
		}
		c.reg.Counter("cluster_retries:" + rt.worker).Inc()
	}
	if err != nil {
		return err
	}
	if len(items) != len(idx) {
		return fmt.Errorf("batch returned %d items for %d requests", len(items), len(idx))
	}
	for n, it := range items {
		i := idx[n]
		results[i].Worker = rt.worker
		if it.Error != "" {
			results[i].Err = errors.New(it.Error)
			continue
		}
		if it.Cloak == nil {
			results[i].Err = fmt.Errorf("worker returned neither cloak nor error")
			continue
		}
		results[i].Cloak = geo.Rect{
			MinX: it.Cloak.MinX + rt.jur.MinX, MinY: it.Cloak.MinY + rt.jur.MinY,
			MaxX: it.Cloak.MaxX + rt.jur.MinX, MaxY: it.Cloak.MaxY + rt.jur.MinY,
		}
		cands := make([]lbs.POI, len(it.Candidates))
		for m, p := range it.Candidates {
			cands[m] = lbs.POI{
				ID:       p.ID,
				Loc:      geo.Point{X: p.X + rt.jur.MinX, Y: p.Y + rt.jur.MinY},
				Category: p.Category,
			}
		}
		results[i].Candidates = cands
	}
	return nil
}

// postBatch runs one POST /v1/request/batch round trip.
func (c *Coordinator) postBatch(ctx context.Context, worker string, body []byte) ([]batchItemJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/request/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	forwardRequestID(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, transient(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("batch rejected: %s: %s", resp.Status, msg)
	}
	var reply struct {
		Results []batchItemJSON `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, transient(err)
	}
	return reply.Results, nil
}
