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
	"policyanon/internal/parallel"
	"policyanon/internal/verify"
)

// shardAttempts is how many times one shard RPC sequence is tried before
// the whole Anonymize call fails; only transport-level failures are
// retried (a rejected snapshot is deterministic and retried never).
const shardAttempts = 2

// Coordinator drives a pool of anonymization servers.
type Coordinator struct {
	workers []string // base URLs, e.g. "http://10.0.0.7:8080"
	client  *http.Client
	reg     *metrics.Registry
	engine  string // engine name shipped with shard snapshots; "" = worker default
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

// forwardRequestID propagates the coordinator's request ID to a worker
// RPC, so one ID correlates the whole distributed anonymization in every
// worker's logs.
func forwardRequestID(ctx context.Context, req *http.Request) {
	if rid := audit.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
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
