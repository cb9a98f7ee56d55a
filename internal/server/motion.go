package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"policyanon/internal/audit"
	"policyanon/internal/ledger"
	"policyanon/internal/motion"
	"policyanon/internal/obs"
)

// This file wires the live motion pipeline (internal/motion) into the
// HTTP server. With motion enabled, POST /v1/moves switches from the
// synchronous maintain-inline protocol to streaming ingest: updates are
// validated at the boundary, queued with explicit backpressure, and
// applied by the pipeline's maintenance loop off the read path. The
// serving path adopts freshly published snapshots pull-based: each
// serving handler compares the pipeline's epoch against the last adopted
// one and swaps the CSP policy under the server lock only when it
// changed — the pipeline's maintenance loop never takes the server lock,
// so applies can never block behind slow requests (and vice versa).

// EnableMotion arms streaming movement ingest. The pipeline itself
// starts when a snapshot is installed (POST /v1/snapshot or a checkpoint
// restore) and inherits the snapshot's engine, k, and engine options;
// cfg carries the streaming knobs: queue capacity, batch size and flush
// interval, backpressure policy, strategy and rebuild threshold, the
// motion bound, checkpoint cadence and sink. cfg.Registry, cfg.Logger
// and cfg.BaseContext are overridden with the server's own.
func (s *Server) EnableMotion(cfg motion.Config) {
	s.mu.Lock()
	s.motionCfg = &cfg
	s.mu.Unlock()
}

// MotionPipeline returns the live pipeline, or nil when motion is
// disabled or no snapshot is installed yet.
func (s *Server) MotionPipeline() *motion.Pipeline {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pipeline
}

// startMotionLocked hands the freshly installed snapshot state over to a
// new pipeline. Callers hold s.mu and must not touch s.db or s.anon
// afterwards — the maintenance loop owns them now (the serving path only
// ever reads the snapshots the pipeline publishes).
func (s *Server) startMotionLocked() error {
	if s.motionCfg == nil {
		return nil
	}
	if s.pipeline != nil {
		// A re-install replaces the pipeline; drain the old one so its
		// accepted moves are not silently dropped. Its state is discarded
		// afterwards either way, so a hung drain only costs the timeout.
		old := s.pipeline
		s.pipeline = nil
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := old.Close(ctx); err != nil && s.logger != nil {
			s.logger.Warn("motion: old pipeline drain failed", "err", err)
		}
		cancel()
	}
	cfg := *s.motionCfg
	cfg.Engine = s.snapEngine
	cfg.K = s.k
	cfg.Opts = s.snapOpts
	cfg.Registry = s.reg
	cfg.Logger = s.logger
	cfg.Flight = s.recorder
	cfg.BaseContext = obs.WithTracer(context.Background(), s.tracer)
	name, k, userSwap := s.snapEngine, s.k, cfg.OnSwap
	baseCtx := cfg.BaseContext
	cfg.OnSwap = func(snap *motion.Snapshot) {
		// Runs on the maintenance loop: observe the maintained policy in
		// the privacy observatory (the streaming path bypasses
		// engine.WithAudit), never take s.mu. The initial snapshot was
		// already audited by the install path.
		if snap.Strategy != "initial" {
			s.aud.ObservePolicy(baseCtx, name, snap.Policy, k)
		}
		if l := s.led.Load(); l != nil {
			detail, _ := json.Marshal(map[string]any{
				"epoch":    snap.Epoch,
				"strategy": snap.Strategy,
				"users":    snap.Policy.Len(),
				"cost":     snap.Policy.Cost(),
			})
			l.Append(baseCtx, ledger.KindSnapshotSwap, name, "", string(detail))
		}
		if userSwap != nil {
			userSwap(snap)
		}
	}
	p, err := motion.NewWithState(s.db, s.bounds, cfg, s.anon, s.policy)
	if err != nil {
		return fmt.Errorf("motion pipeline: %w", err)
	}
	s.pipeline = p
	s.anon = nil // owned by the pipeline now
	// Epoch 1 is s.policy itself, which the maintenance loop never writes:
	// the serving state has adopted it already.
	s.lastEpoch.Store(p.Epoch())
	return nil
}

// refreshMotion adopts the pipeline's latest published snapshot into the
// serving state. It is called at the top of serving handlers (pull-based
// adoption): the epoch compare is lock-free, and only an actual epoch
// change takes the server lock — so the common case costs one atomic
// load, and the maintenance loop never has to wait on the serving path.
func (s *Server) refreshMotion() {
	p := s.MotionPipeline()
	if p == nil {
		return
	}
	snap := p.Snapshot()
	if snap.Epoch == s.lastEpoch.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipeline != p || snap.Epoch == s.lastEpoch.Load() {
		return // raced with a re-install or another adopter
	}
	s.lastEpoch.Store(snap.Epoch)
	s.policy = snap.Policy
	if s.csp != nil {
		s.csp.SetPolicy(snap.Policy)
	}
	pst := p.Stats()
	s.stats.PolicyCost = snap.Policy.Cost()
	s.stats.AvgCloakArea = snap.Policy.AvgArea()
	s.stats.MovesApplied = pst.Moves
	s.stats.RowsRecomputed = pst.Rows
	s.stats.MaintenanceMs = float64(snap.ApplyTime.Microseconds()) / 1000
}

// DrainMotion stops the ingest queue and blocks until every accepted
// update has been applied (or ctx expires). It is the first step of the
// graceful-shutdown ordering: stop accepting moves → drain → final
// checkpoint → exit. Safe to call when motion is disabled.
func (s *Server) DrainMotion(ctx context.Context) error {
	p := s.MotionPipeline()
	if p == nil {
		return nil
	}
	err := p.Close(ctx)
	s.refreshMotion() // adopt the final snapshot for CheckpointTo
	return err
}

// MoveUpdateJSON is one streaming movement update on the wire.
// Coordinates are float64 — the validation boundary of the system — so
// malformed numeric input is detected and rejected instead of being
// silently truncated into the int32 domain.
type MoveUpdateJSON struct {
	ID string  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// StreamMovesRequest is the streaming-ingest form of MovesRequest.
type StreamMovesRequest struct {
	Moves []MoveUpdateJSON `json:"moves"`
}

// handleMovesStreaming is POST /v1/moves with the pipeline active:
// validate, enqueue, 202. body is the request body, already read under the
// route's limit. Updates are admitted in order; the first failure stops
// the batch and reports how many were already queued.
//
//	400 — invalid update (non-finite/out-of-bounds coordinates, unknown
//	      user, motion-bound violation); body carries the reason
//	429 — ingest queue full under the Drop backpressure policy
//	503 — pipeline draining (server shutting down)
func (s *Server) handleMovesStreaming(w http.ResponseWriter, r *http.Request, p *motion.Pipeline, body []byte) {
	ups, err := decodeStreamMoves(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	queued, err := p.EnqueueBatch(r.Context(), ups)
	if err == nil {
		st := p.Stats()
		writeJSON(w, http.StatusAccepted, map[string]any{
			"queued":     queued,
			"queueDepth": st.QueueDepth,
			"epoch":      st.Epoch,
		})
		return
	}
	// The batch stopped at the first update it did not queue.
	status, out := http.StatusTooManyRequests, map[string]any{
		"error":  err.Error(),
		"move":   queued,
		"queued": queued,
	}
	var rej *motion.RejectError
	switch {
	case errors.As(err, &rej):
		if l := s.Logger(); l != nil {
			// The request ID minted/echoed by instrument() rides the
			// context, so a rejected move correlates with the client's
			// X-Request-ID across log, trace, and response header.
			l.LogAttrs(r.Context(), slog.LevelWarn, "motion_rejected",
				slog.String("rid", audit.RequestID(r.Context())),
				slog.String("user", ups[queued].UserID),
				slog.String("reason", string(rej.Reason)),
				slog.Int("move", queued),
				slog.String("err", rej.Error()),
			)
		}
		status, out["reason"] = http.StatusBadRequest, rej.Reason
	case errors.Is(err, motion.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	// Otherwise 429: ErrQueueFull under Drop, or the context ending while
	// Block waited on a full queue.
	writeJSON(w, status, out)
}

// handleMotion is GET /v1/motion: live pipeline accounting.
func (s *Server) handleMotion(w http.ResponseWriter, r *http.Request) {
	p := s.MotionPipeline()
	if p == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	s.refreshMotion()
	cfg := p.Config()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":          true,
		"strategy":         string(cfg.Strategy),
		"backpressure":     cfg.Policy.String(),
		"maxBatch":         cfg.MaxBatch,
		"flushIntervalMs":  float64(cfg.FlushInterval.Microseconds()) / 1000,
		"rebuildThreshold": cfg.RebuildThreshold,
		"maxMoveMeters":    cfg.MaxMoveMeters,
		"stats":            p.Stats(),
	})
}
