// Package server exposes the anonymizing CSP as a JSON-over-HTTP service,
// the deployable component behind cmd/anonserver. One server instance
// plays the role of a single anonymization server of Section V; a fleet of
// them, one per jurisdiction, forms the parallel deployment.
//
// Endpoints:
//
//	GET  /healthz              readiness probe (?probe=live for liveness)
//	GET  /v1/engines           list registered anonymization engines
//	POST /v1/snapshot          install a location snapshot and compute a
//	                           cloaking policy (engine selectable per
//	                           request via ?engine= or the body field)
//	POST /v1/moves             apply user movement for the next snapshot
//	                           and maintain the policy (incrementally for
//	                           engines that support it)
//	POST /v1/pois              install the point-of-interest catalogue
//	GET  /v1/cloak?user=ID     look up a user's cloak under the installed
//	                           policy (&engine=NAME is a 400)
//	POST /v1/request           anonymize a service request and answer it
//	POST /v1/request/batch     anonymize and answer many requests in one
//	                           round trip: one snapshot acquisition,
//	                           parallel per-user resolution, per-item
//	                           errors (identical concurrent lookups
//	                           coalesce into one provider round trip)
//	GET  /v1/audit             rolling privacy report: achieved anonymity
//	                           under both attacker classes, breach totals
//	GET  /v1/audit/root        latest sealed ledger checkpoint: the signed
//	                           Merkle chain root over all audit events
//	                           (404 until the ledger is enabled and has
//	                           sealed a batch)
//	GET  /v1/audit/proof?seq=N Merkle inclusion proof for audit event N,
//	                           verifiable offline against the chain root
//	                           (409 while the event is pending a seal,
//	                           410 when its batch aged out of retention)
//	GET  /v1/motion            streaming-ingest pipeline statistics
//	                           ({"enabled": false} when motion is off)
//	GET  /v1/checkpoint        stream the current state as a checkpoint
//	POST /v1/restore           install a previously saved checkpoint
//	GET  /v1/stats             snapshot, policy, cache and coalescing
//	                           statistics
//	GET  /v1/metrics           metrics registry (JSON; ?format=prometheus
//	                           for text exposition), pprof on the side mux
//	GET  /v1/debug/flightrecorder  flight recorder dump: stats, retained
//	                           trace summaries, notable events (JSON;
//	                           ?format=chrome for a chrome://tracing view
//	                           of every retained trace)
//	GET  /v1/debug/trace       one retained trace with its full span tree,
//	                           by ?rid= (request ID, batch item IDs
//	                           included) or ?tid= (trace ID); JSON or
//	                           ?format=chrome
//
// /healthz is a readiness probe: it answers 503 until the first snapshot
// is installed, 200 with snapshot facts afterwards. /healthz?probe=live
// is pure liveness and always answers 200.
//
// Every request is tagged with a request ID (the incoming X-Request-ID
// header, or a freshly minted one), echoed in the response X-Request-ID
// header, carried down the context, stamped on audit breach log lines and
// trace spans, and forwarded by the cluster coordinator to its shard
// RPCs — one ID correlates a request across log, trace, and metric on
// every server that touched it.
//
// The serving routes (/v1/request and /v1/request/batch) additionally
// run an always-on tracing layer: each request opens an obs.Capture with
// a trace ID (the incoming X-Trace-Id, or a minted one, echoed in the
// response), and at request end tail-based sampling retains the span
// tree of interesting requests — slow against the flight recorder's
// rolling p99-derived threshold, status >= 400, audit breaches, motion
// fallbacks, CSP cache-miss flights, propagated cluster legs, or forced
// with an X-Debug-Trace header — into the flight recorder the debug
// endpoints serve. Latency histograms carry the retained trace ID as an
// exemplar, linking any latency spike to a concrete trace.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"policyanon/internal/audit"
	"policyanon/internal/checkpoint"
	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/ledger"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/motion"
	"policyanon/internal/obs"
	"policyanon/internal/obs/flight"
)

// Server is the HTTP anonymization service. Create with New and mount via
// Handler.
type Server struct {
	mu         sync.RWMutex
	k          int
	bounds     geo.Rect
	db         *location.DB
	anon       *core.Anonymizer // non-nil only for incremental engines
	policy     *lbs.Assignment
	csp        *lbs.CSP
	provider   *lbs.POIProvider
	stats      Stats
	reg        *metrics.Registry
	tracer     *obs.Tracer
	aud        *audit.Auditor
	logger     *slog.Logger
	engineName string // default engine; "" means engine.DefaultName
	snapEngine string // engine that produced the installed policy
	// snapOpts carries the engine options the installed snapshot was
	// anonymized with (e.g. the "workers" DP parallelism budget), so
	// post-snapshot recomputations — checkpoint-restore rebuilds and move
	// replays — run under the same options.
	snapOpts map[string]string

	// motionCfg, when non-nil, arms streaming movement ingest
	// (EnableMotion); pipeline is the live instance, created when a
	// snapshot installs. lastEpoch is the pipeline epoch the serving
	// state last adopted — the lock-free fast path of refreshMotion.
	motionCfg *motion.Config
	pipeline  *motion.Pipeline
	lastEpoch atomic.Int64

	// led, when set via EnableLedger, is the tamper-evident audit ledger
	// behind /v1/audit/root and /v1/audit/proof. Atomic: the serving path
	// reads it without touching s.mu.
	led atomic.Pointer[ledger.Ledger]

	// recorder is the always-on flight recorder behind tail-based request
	// sampling (GET /v1/debug/flightrecorder); traceReqs gates the
	// per-request capture machinery — off, serving runs exactly as before
	// this layer existed, which is what the trace benchmark compares.
	recorder  *flight.Recorder
	traceReqs atomic.Bool

	// requestsServed and batchesServed are Stats.RequestsServed and
	// Stats.BatchesServed, counted lock-free on the serving path and
	// copied into the document when /v1/stats is read.
	requestsServed atomic.Int64
	batchesServed  atomic.Int64
}

// Stats reports the server's state.
type Stats struct {
	Users          int     `json:"users"`
	K              int     `json:"k"`
	Engine         string  `json:"engine,omitempty"`
	PolicyCost     int64   `json:"policyCost"`
	AvgCloakArea   float64 `json:"avgCloakArea"`
	AnonymizeMs    float64 `json:"anonymizeMs"`
	POIs           int     `json:"pois"`
	RequestsServed int64   `json:"requestsServed"`
	BatchesServed  int64   `json:"batchesServed"`
	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	// CoalesceFlights counts provider lookups started by a singleflight
	// leader; CoalesceCoalesced counts requests that shared another
	// request's in-flight lookup instead of issuing their own.
	CoalesceFlights   int64   `json:"coalesceFlights"`
	CoalesceCoalesced int64   `json:"coalesceCoalesced"`
	MovesApplied      int64   `json:"movesApplied"`
	RowsRecomputed    int64   `json:"rowsRecomputed"`
	MaintenanceMs     float64 `json:"maintenanceMs"`
	// Live motion-pipeline gauges (zero when streaming ingest is off), so
	// /v1/stats alone gives the full serving picture without /v1/motion.
	MotionEpoch      int64 `json:"motionEpoch"`
	MotionQueueDepth int   `json:"motionQueueDepth"`
	MotionFallbacks  int64 `json:"motionFallbacks"`
}

// New returns an empty server; install a snapshot before serving requests.
// The server traces every anonymization and serve phase into its metrics
// registry (span retention stays off: a long-running server keeps
// aggregates and histograms, not trace buffers).
func New() *Server {
	reg := metrics.NewRegistry()
	tracer := obs.NewTracer()
	tracer.KeepSpans(false)
	tracer.SetRegistry(reg)
	aud := audit.New(reg, audit.Options{
		Rate: audit.DefaultRate,
		// Breaches of engines that honestly register PolicyAware=false
		// are expected (Proposition 3); unknown engines are held to the
		// full policy-aware standard.
		ExpectPolicyAware: func(name string) bool {
			info, ok := engine.InfoOf(name)
			return !ok || info.PolicyAware
		},
	})
	rec := flight.New(0, 0)
	aud.SetFlight(rec)
	s := &Server{reg: reg, tracer: tracer, aud: aud, recorder: rec}
	s.traceReqs.Store(true)
	return s
}

// SetDefaultEngine selects the engine used when a snapshot request names
// none. The name must be registered.
func (s *Server) SetDefaultEngine(name string) error {
	if _, err := engine.Get(name); err != nil {
		return err
	}
	s.mu.Lock()
	s.engineName = name
	s.mu.Unlock()
	return nil
}

// DefaultEngine returns the server's default engine name.
func (s *Server) DefaultEngine() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.engineName == "" {
		return engine.DefaultName
	}
	return s.engineName
}

// Metrics exposes the server's registry (shared with the phase tracer).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Auditor exposes the server's privacy observatory.
func (s *Server) Auditor() *audit.Auditor { return s.aud }

// SetAuditRate sets the fraction of served /v1/request calls audited for
// achieved anonymity (0 disables request sampling; policy installs are
// always audited).
func (s *Server) SetAuditRate(rate float64) { s.aud.SetRate(rate) }

// SetLogger installs a structured logger: per-request access records at
// Debug, audit breach records at Warn, each carrying the request ID.
func (s *Server) SetLogger(l *slog.Logger) {
	s.mu.Lock()
	s.logger = l
	s.mu.Unlock()
	s.aud.SetLogger(l)
}

// Logger returns the installed structured logger, or nil.
func (s *Server) Logger() *slog.Logger {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.logger
}

// Tracer exposes the server's phase tracer, e.g. to print a phase table
// on shutdown.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// FlightRecorder exposes the server's flight recorder — the retention
// side of tail-based request sampling.
func (s *Server) FlightRecorder() *flight.Recorder { return s.recorder }

// SetFlightRecorder replaces the flight recorder (to resize its rings
// before serving). It re-points the auditor's breach-event sink too.
func (s *Server) SetFlightRecorder(rec *flight.Recorder) {
	if rec == nil {
		return
	}
	s.recorder = rec
	s.aud.SetFlight(rec)
}

// SetRequestTracing toggles the always-on per-request capture layer.
// Off, serving skips trace-context minting, root spans, and tail
// sampling entirely — the baseline leg of the trace overhead benchmark.
func (s *Server) SetRequestTracing(on bool) { s.traceReqs.Store(on) }

// RequestTracing reports whether per-request tracing is enabled.
func (s *Server) RequestTracing() bool { return s.traceReqs.Load() }

// obsCtx threads the server's tracer into a request-scoped context. When
// instrument already installed it (traced serving routes carry a capture
// and a root span), the request context is returned unchanged so the
// handler's spans stay inside the request's call tree.
func (s *Server) obsCtx(r *http.Request) context.Context {
	ctx := r.Context()
	if obs.TracerFrom(ctx) == s.tracer {
		return ctx
	}
	return obs.WithTracer(ctx, s.tracer)
}

// Handler returns the HTTP handler tree. Every endpoint is wrapped with
// per-route request counting and latency histograms, exported at
// /v1/metrics (JSON by default, Prometheus text exposition with
// ?format=prometheus).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("GET /v1/audit/root", s.handleAuditRoot)
	mux.HandleFunc("GET /v1/audit/proof", s.handleAuditProof)
	mux.HandleFunc("GET /v1/engines", s.handleEngines)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/moves", s.handleMoves)
	mux.HandleFunc("POST /v1/pois", s.handlePOIs)
	mux.HandleFunc("GET /v1/checkpoint", s.handleCheckpointSave)
	mux.HandleFunc("POST /v1/restore", s.handleCheckpointRestore)
	mux.HandleFunc("GET /v1/cloak", s.handleCloak)
	mux.HandleFunc("POST /v1/request", s.handleRequest)
	mux.HandleFunc("POST /v1/request/batch", s.handleRequestBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/motion", s.handleMotion)
	mux.HandleFunc("GET /v1/debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /v1/debug/trace", s.handleDebugTrace)
	return s.instrument(mux)
}

// handleHealthz answers readiness by default — 503 until the first
// snapshot is installed — and pure liveness with ?probe=live (always
// 200). Load balancers and the cluster coordinator use the liveness form
// to tell a crashed worker from one merely awaiting its shard.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("probe") == "live" {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	s.mu.RLock()
	ready := s.policy != nil
	users, k := s.stats.Users, s.stats.K
	s.mu.RUnlock()
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting", "ready": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "ready": true, "users": users, "k": k})
}

// handleAudit serves the privacy observatory's rolling report.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.aud.Report())
}

// statusRecorder captures the response status for access logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// tracedRoute reports whether route gets the always-on per-request
// capture: the serving hot paths, where tail sampling pays for itself.
func tracedRoute(route string) bool {
	return route == "POST /v1/request" || route == "POST /v1/request/batch"
}

// instrument wraps the handler tree with per-route metrics and request-ID
// correlation: the incoming X-Request-ID (or a minted one) is carried in
// the request context — where audit breach logs and spans pick it up —
// and echoed in the response header.
//
// On the serving routes it also runs the always-on tracing layer: a
// capture and a root span are opened per request (adopting an incoming
// X-Trace-ID, so cluster shard legs join their coordinator's trace), and
// at request end the tail-sampling decision either retains the full span
// tree into the flight recorder or discards it, leaving only aggregates.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = audit.MintRequestID()
		}
		ctx := audit.WithRequestID(r.Context(), rid)
		route := r.Method + " " + r.URL.Path

		var cap *obs.Capture
		var root *obs.Span
		remote := false
		if s.traceReqs.Load() && tracedRoute(route) {
			tid := r.Header.Get(flight.TraceIDHeader)
			remote = tid != ""
			if tid == "" {
				tid = flight.MintTraceID()
			}
			cap = obs.NewCapture(tid, 0)
			if remote {
				if pp, err := strconv.ParseUint(r.Header.Get(flight.ParentSpanHeader), 10, 64); err == nil {
					cap.SetRemoteParent(pp)
				}
			}
			ctx, root = obs.StartRootCaptured(ctx, s.tracer, cap, "http.request")
			root.SetAttr("route", route)
			root.SetAttr("rid", rid)
			w.Header().Set(flight.TraceIDHeader, tid)
		}
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-ID", rid)
		s.reg.Counter("requests:" + route).Inc()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		exemplar := ""
		if cap != nil {
			root.SetAttr("status", statusLabel(rec.status))
			root.End()
			forced := r.Header.Get(flight.ForceHeader) != ""
			if s.tailDecision(cap, rid, route, rec.status, start, elapsed, remote, forced) {
				exemplar = cap.TraceID()
			}
		}
		s.reg.Histogram("latency:"+route).ObserveExemplar(elapsed, exemplar)
		if l := s.Logger(); l != nil {
			l.LogAttrs(r.Context(), slog.LevelDebug, "request",
				slog.String("rid", rid),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Float64("ms", float64(elapsed.Microseconds())/1000),
			)
		}
	})
}

// statusLabel renders an HTTP status for a span attribute without a
// per-request formatting allocation on the common codes.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusInternalServerError:
		return "500"
	}
	return strconv.Itoa(code)
}

// handleMetrics exports the registry: JSON snapshot by default, or
// Prometheus text exposition format 0.0.4 with ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.foldServeStatsLocked()
	s.mu.Unlock()
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	case "prometheus":
		w.Header().Set("Content-Type", metrics.ContentTypePrometheus)
		w.WriteHeader(http.StatusOK)
		if err := s.reg.WritePrometheus(w); err != nil {
			// Headers are out; nothing better to do than note it inline.
			fmt.Fprintf(w, "\n# exposition error: %v\n", err)
		}
	default:
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want json or prometheus)", r.URL.Query().Get("format")))
	}
}

// handleEngines lists every registered engine with its capability flags,
// plus this server's default.
func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"default": s.DefaultEngine(),
		"engines": engine.Infos(),
	})
}

// UserJSON is one location-database row on the wire.
type UserJSON struct {
	ID string `json:"id"`
	X  int32  `json:"x"`
	Y  int32  `json:"y"`
}

// SnapshotRequest installs a new location snapshot. Engine selects the
// anonymization engine by registry name (the ?engine= query parameter
// takes precedence; the server default applies when both are empty).
// Opts carries engine options by name — notably "workers", the intra-tree
// DP parallelism budget of engines with Info.Parallel.
type SnapshotRequest struct {
	K       int               `json:"k"`
	MapSide int32             `json:"mapSide"`
	Engine  string            `json:"engine,omitempty"`
	Opts    map[string]string `json:"opts,omitempty"`
	Users   []UserJSON        `json:"users"`
}

// RectJSON is a cloak on the wire.
type RectJSON struct {
	MinX int32 `json:"minX"`
	MinY int32 `json:"minY"`
	MaxX int32 `json:"maxX"`
	MaxY int32 `json:"maxY"`
}

func rectJSON(r geo.Rect) RectJSON {
	return RectJSON{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	body, ok := bodyOrError(w, r, maxSnapshotBody)
	if !ok {
		return
	}
	req, users, err := decodeSnapshot(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	if req.K < 1 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("k must be >= 1, got %d", req.K))
		return
	}
	if req.MapSide < 1 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("mapSide must be >= 1, got %d", req.MapSide))
		return
	}
	name := r.URL.Query().Get("engine")
	if name == "" {
		name = req.Engine
	}
	if name == "" {
		name = s.DefaultEngine()
	}
	eng, err := engine.Get(name)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	info, _ := engine.InfoOf(name)
	db, err := location.FromRecords(users)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	bounds := geo.NewRect(0, 0, req.MapSide, req.MapSide)
	// Incremental engines run through the core anonymizer directly so the
	// configuration matrix survives for /v1/moves maintenance; wrapping
	// the construction as an inline engine keeps spans and metrics
	// identical to the generic path.
	var anon *core.Anonymizer
	run := eng
	if info.Incremental {
		run = engine.New(name, func(ctx context.Context, db *location.DB, bounds geo.Rect, p engine.Params) (*lbs.Assignment, error) {
			dp, err := engine.DPOptions(p)
			if err != nil {
				return nil, err
			}
			a, err := core.NewAnonymizerContext(ctx, db, bounds, core.AnonymizerOptions{K: p.K, DP: dp})
			if err != nil {
				return nil, err
			}
			anon = a
			return a.Policy()
		})
	}
	start := time.Now()
	policy, err := s.runEngine(s.obsCtx(r), run, db, bounds, engine.Params{K: req.K, Opts: req.Opts})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrInsufficientUsers) {
			status = http.StatusUnprocessableEntity
		}
		httpError(w, status, err)
		return
	}
	elapsed := time.Since(start)

	s.mu.Lock()
	s.k = req.K
	s.bounds = bounds
	s.db = db
	s.anon = anon
	s.policy = policy
	s.snapEngine = name
	s.snapOpts = req.Opts
	if s.provider != nil {
		if s.csp == nil {
			s.csp = lbs.NewCSP(policy, s.provider)
		} else {
			s.csp.SetPolicy(policy)
		}
	}
	s.stats.Users = db.Len()
	s.stats.K = req.K
	s.stats.Engine = name
	s.stats.PolicyCost = policy.Cost()
	s.stats.AvgCloakArea = policy.AvgArea()
	s.stats.AnonymizeMs = float64(elapsed.Microseconds()) / 1000
	if err := s.startMotionLocked(); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Unlock()

	writeJSON(w, http.StatusOK, map[string]any{
		"users":        db.Len(),
		"engine":       name,
		"policyCost":   policy.Cost(),
		"avgCloakArea": policy.AvgArea(),
		"anonymizeMs":  float64(elapsed.Microseconds()) / 1000,
	})
}

// runEngine executes an engine under the server's tracing, metrics, and
// audit middleware. Policy computations are rare (snapshot installs,
// move replays) relative to request serving, so every one is audited
// (rate 1) regardless of the request sampling rate.
func (s *Server) runEngine(ctx context.Context, e engine.Engine, db *location.DB, bounds geo.Rect, p engine.Params) (*lbs.Assignment, error) {
	return engine.Wrap(e,
		engine.WithTracing(),
		engine.WithMetrics(s.reg),
		engine.WithAudit(s.aud, 1),
	).Anonymize(ctx, db, bounds, p)
}

// MovesRequest applies one snapshot interval's worth of user movement.
type MovesRequest struct {
	Moves []UserJSON `json:"moves"`
}

func (s *Server) handleMoves(w http.ResponseWriter, r *http.Request) {
	body, ok := bodyOrError(w, r, maxBatchBody)
	if !ok {
		return
	}
	if p := s.MotionPipeline(); p != nil {
		// Motion enabled: streaming ingest owns maintenance; the
		// synchronous protocol below only serves pipelines-off deployments.
		s.handleMovesStreaming(w, r, p, body)
		return
	}
	var req MovesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.db == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("no snapshot installed"))
		return
	}
	name := s.snapEngine
	if name == "" {
		name = engine.DefaultName
	}
	info, _ := engine.InfoOf(name)
	if s.anon == nil && info.Incremental {
		// State restored from a checkpoint carries no configuration
		// matrix; rebuild it once, after which maintenance is incremental.
		dp, err := engine.DPOptions(engine.Params{K: s.k, Opts: s.snapOpts})
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		anon, err := core.NewAnonymizerContext(s.obsCtx(r), s.db, s.bounds, core.AnonymizerOptions{K: s.k, DP: dp})
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		s.anon = anon
	}
	start := time.Now()
	var rows int
	var policy *lbs.Assignment
	if s.anon != nil {
		for _, m := range req.Moves {
			idx := s.db.Index(m.ID)
			if idx < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("unknown user %q", m.ID))
				return
			}
			if !s.bounds.Contains(geo.Point{X: m.X, Y: m.Y}) {
				s.reg.Counter("moves_rejected:bounds").Inc()
				httpError(w, http.StatusBadRequest, fmt.Errorf("move %q: destination (%d,%d) outside map bounds", m.ID, m.X, m.Y))
				return
			}
			if err := s.anon.Move(idx, geo.Point{X: m.X, Y: m.Y}); err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("move %q: %w", m.ID, err))
				return
			}
		}
		rows = s.anon.Refresh()
		var err error
		policy, err = s.anon.Policy()
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		// The incremental path bypasses runEngine, so audit the maintained
		// policy explicitly — same always-on rate as engine.WithAudit.
		s.aud.ObservePolicy(s.obsCtx(r), name, policy, s.k)
	} else {
		// Non-incremental engine: apply the moves to the snapshot and
		// recompute the whole policy from scratch.
		for _, m := range req.Moves {
			idx := s.db.Index(m.ID)
			if idx < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("unknown user %q", m.ID))
				return
			}
			if !s.bounds.Contains(geo.Point{X: m.X, Y: m.Y}) {
				s.reg.Counter("moves_rejected:bounds").Inc()
				httpError(w, http.StatusBadRequest, fmt.Errorf("move %q: destination (%d,%d) outside map bounds", m.ID, m.X, m.Y))
				return
			}
			s.db.MoveAt(idx, geo.Point{X: m.X, Y: m.Y})
		}
		eng, err := engine.Get(name)
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		policy, err = s.runEngine(s.obsCtx(r), eng, s.db, s.bounds, engine.Params{K: s.k, Opts: s.snapOpts})
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		rows = s.db.Len()
	}
	elapsed := time.Since(start)
	s.policy = policy
	if s.csp != nil {
		s.csp.SetPolicy(policy)
	}
	s.stats.MovesApplied += int64(len(req.Moves))
	s.stats.RowsRecomputed += int64(rows)
	s.stats.MaintenanceMs = float64(elapsed.Microseconds()) / 1000
	s.stats.PolicyCost = policy.Cost()
	s.stats.AvgCloakArea = policy.AvgArea()
	writeJSON(w, http.StatusOK, map[string]any{
		"moves":          len(req.Moves),
		"rowsRecomputed": rows,
		"policyCost":     policy.Cost(),
		"maintenanceMs":  float64(elapsed.Microseconds()) / 1000,
	})
}

// POIJSON is one catalogue entry on the wire.
type POIJSON struct {
	ID       string `json:"id"`
	X        int32  `json:"x"`
	Y        int32  `json:"y"`
	Category string `json:"category"`
}

func (s *Server) handlePOIs(w http.ResponseWriter, r *http.Request) {
	var req struct {
		MapSide int32     `json:"mapSide"`
		POIs    []POIJSON `json:"pois"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	if req.MapSide < 1 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("mapSide must be >= 1"))
		return
	}
	pois := make([]lbs.POI, len(req.POIs))
	for i, p := range req.POIs {
		pois[i] = lbs.POI{ID: p.ID, Loc: geo.Point{X: p.X, Y: p.Y}, Category: p.Category}
	}
	store, err := lbs.NewPOIStore(pois, geo.NewRect(0, 0, req.MapSide, req.MapSide), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.foldServeStatsLocked() // the outgoing CSP's counts, before it goes
	s.provider = lbs.NewPOIProvider(store)
	if s.policy != nil {
		s.csp = lbs.NewCSP(s.policy, s.provider)
	} else {
		s.csp = nil
	}
	s.stats.POIs = len(pois)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{"pois": len(pois)})
}

func (s *Server) handleCloak(w http.ResponseWriter, r *http.Request) {
	s.refreshMotion()
	user := r.URL.Query().Get("user")
	if user == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing user parameter"))
		return
	}
	if r.URL.Query().Get("engine") != "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf(
			"/v1/cloak serves the installed engine only; compare engines with anoncli -engine or lbsbench -exp engines"))
		return
	}
	s.mu.RLock()
	policy := s.policy
	s.mu.RUnlock()
	if policy == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("no snapshot installed"))
		return
	}
	cloak, err := policy.CloakOf(user)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"user": user, "cloak": rectJSON(cloak)})
}

// ServiceRequestJSON is a user request on the wire.
type ServiceRequestJSON struct {
	User   string      `json:"user"`
	X      int32       `json:"x"`
	Y      int32       `json:"y"`
	Params []lbs.Param `json:"params"`
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	s.refreshMotion()
	body, ok := bodyOrError(w, r, maxItemBytes)
	if !ok {
		return
	}
	req, err := decodeRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	s.mu.RLock()
	csp := s.csp
	s.mu.RUnlock()
	if csp == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("snapshot and POIs must be installed first"))
		return
	}
	sr := lbs.ServiceRequest{UserID: req.User, Loc: geo.Point{X: req.X, Y: req.Y}, Params: req.Params}
	ctx := s.obsCtx(r)
	ar, answer, rendered, err := csp.ServeRendered(ctx, sr, renderCandidates)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.RLock()
	policy, engineName, k := s.policy, s.snapEngine, s.k
	s.mu.RUnlock()
	if policy != nil {
		// Sampled achieved-anonymity check on the served cloak: two
		// candidate scans per sampled request, nothing on the rest.
		s.aud.MaybeObserveRequest(ctx, engineName, policy, ar.Cloak, k)
	}
	s.reg.Counter("serve_requests:single").Inc()
	s.requestsServed.Add(1)
	writeRequestOK(w, &served{rid: ar.RID, cloak: ar.Cloak, answer: answer, rendered: rendered})
}

// foldServeStatsLocked folds the live CSP's cumulative cache and coalesce
// counters into the stats snapshot and the coalesce_* metric families.
// It runs when somebody reads them (/v1/stats, /v1/metrics) and before a
// POI install replaces the CSP — never on the serving path. Callers hold
// s.mu. The CSP's counters reset on FlushCache and with a new CSP;
// counterDelta keeps the monotonic registry counters sane across such
// epochs.
func (s *Server) foldServeStatsLocked() {
	if s.csp == nil {
		return
	}
	st := s.csp.Stats()
	s.reg.Counter("coalesce_flights").Add(counterDelta(s.stats.CoalesceFlights, st.Flights))
	s.reg.Counter("coalesce_coalesced").Add(counterDelta(s.stats.CoalesceCoalesced, st.Coalesced))
	s.stats.CacheHits, s.stats.CacheMisses = st.Hits, st.Misses
	s.stats.CoalesceFlights, s.stats.CoalesceCoalesced = st.Flights, st.Coalesced
}

// counterDelta returns the increment from last to cur for a cumulative
// source counter that may have been reset to a new epoch (cur < last), in
// which case everything cur has counted is new.
func counterDelta(last, cur int64) int64 {
	if cur >= last {
		return cur - last
	}
	return cur
}

// maxBatchRequests bounds one POST /v1/request/batch body; larger
// pipelines should split across calls.
const maxBatchRequests = 10000

// BatchRequestJSON is the POST /v1/request/batch body: many user
// requests answered in one round trip against ONE serving snapshot.
type BatchRequestJSON struct {
	Requests []ServiceRequestJSON `json:"requests"`
}

// handleRequestBatch serves POST /v1/request/batch: the serving snapshot
// (CSP, policy, engine) is acquired once for the whole batch, then the
// items resolve in parallel on a bounded worker set. Concurrent items
// that share a cloak and parameters coalesce inside the CSP into one
// provider lookup, which is where the batch's throughput advantage over
// N sequential /v1/request calls comes from.
func (s *Server) handleRequestBatch(w http.ResponseWriter, r *http.Request) {
	s.refreshMotion()
	body, ok := bodyOrError(w, r, maxBatchBody)
	if !ok {
		return
	}
	reqs, n, err := decodeBatch(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	if n == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if n > maxBatchRequests {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds the %d-request limit", n, maxBatchRequests))
		return
	}
	// One snapshot acquisition for the whole batch.
	s.mu.RLock()
	csp, policy, engineName, k := s.csp, s.policy, s.snapEngine, s.k
	s.mu.RUnlock()
	if csp == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("snapshot and POIs must be installed first"))
		return
	}
	ctx := s.obsCtx(r)
	obs.CaptureFrom(ctx).Reserve(2*n + 1) // serve.item and csp.serve per item, and the root
	batchRID := audit.RequestID(ctx)
	logger := s.Logger()
	items := make([]served, n)
	nw := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				rq := &reqs[i]
				// Each item gets a derived request ID so its breach
				// records, log lines, and spans correlate individually.
				// It goes into a context only for the items something
				// reads it from: the audited and the failed.
				itemRID := batchRID + "-" + strconv.Itoa(i)
				ictx, isp := obs.Start(ctx, "serve.item")
				isp.SetAttr("rid", itemRID)
				sr := lbs.ServiceRequest{UserID: rq.User, Loc: geo.Point{X: rq.X, Y: rq.Y}, Params: rq.Params}
				ar, answer, rendered, err := csp.ServeRendered(ictx, sr, renderCandidates)
				if err != nil {
					isp.SetAttr("error", err.Error())
					isp.End()
					items[i] = served{err: err}
					if logger != nil {
						logger.LogAttrs(audit.WithRequestID(ictx, itemRID), slog.LevelDebug, "batch item failed",
							slog.String("rid", itemRID),
							slog.String("user", rq.User),
							slog.String("error", err.Error()),
						)
					}
					continue
				}
				if policy != nil && s.aud.SampleRequest() {
					s.aud.ObserveRequest(audit.WithRequestID(ictx, itemRID), engineName, policy, ar.Cloak, k)
				}
				items[i] = served{rid: ar.RID, cloak: ar.Cloak, answer: answer, rendered: rendered}
				isp.End()
			}
		}()
	}
	wg.Wait()
	s.reg.Counter("serve_batches").Inc()
	s.reg.Counter("serve_requests:batch").Add(int64(n))
	s.requestsServed.Add(int64(n))
	s.batchesServed.Add(1)
	writeBatchOK(w, batchRID, items)
}

// CheckpointTo streams the current state as a checkpoint; it fails when
// no snapshot is installed.
func (s *Server) CheckpointTo(w io.Writer) error {
	s.refreshMotion()
	s.mu.RLock()
	policy, k, bounds := s.policy, s.k, s.bounds
	s.mu.RUnlock()
	if policy == nil {
		return fmt.Errorf("server: no snapshot installed")
	}
	return checkpoint.Save(w, k, bounds, policy)
}

// RestoreFrom installs a previously saved checkpoint. The configuration
// matrix is rebuilt lazily on the first movement update.
func (s *Server) RestoreFrom(r io.Reader) error {
	st, err := checkpoint.Load(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.k = st.K
	s.bounds = st.Bounds
	s.db = st.DB
	s.anon = nil // lazily rebuilt by the next /v1/moves
	s.policy = st.Policy
	// Checkpoints predate engine selection and always carry the default
	// engine's policy, with default options.
	s.snapEngine = engine.DefaultName
	s.snapOpts = nil
	if s.provider != nil {
		if s.csp == nil {
			s.csp = lbs.NewCSP(st.Policy, s.provider)
		} else {
			s.csp.SetPolicy(st.Policy)
		}
	}
	s.stats.Users = st.DB.Len()
	s.stats.K = st.K
	s.stats.PolicyCost = st.Policy.Cost()
	s.stats.AvgCloakArea = st.Policy.AvgArea()
	err = s.startMotionLocked()
	s.mu.Unlock()
	return err
}

func (s *Server) handleCheckpointSave(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	installed := s.policy != nil
	s.mu.RUnlock()
	if !installed {
		httpError(w, http.StatusConflict, fmt.Errorf("no snapshot installed"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.CheckpointTo(w); err != nil {
		// Headers are already out; log-style best effort.
		fmt.Fprintf(w, "\ncheckpoint error: %v", err)
	}
}

func (s *Server) handleCheckpointRestore(w http.ResponseWriter, r *http.Request) {
	if err := s.RestoreFrom(r.Body); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, checkpoint.ErrUnsafe) {
			status = http.StatusUnprocessableEntity
		}
		httpError(w, status, err)
		return
	}
	s.mu.RLock()
	users, k := s.stats.Users, s.stats.K
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"users": users, "k": k})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.refreshMotion()
	s.mu.Lock()
	s.foldServeStatsLocked()
	st := s.stats
	pl := s.pipeline
	s.mu.Unlock()
	st.RequestsServed, st.BatchesServed = s.requestsServed.Load(), s.batchesServed.Load()
	if pl != nil {
		ms := pl.Stats()
		st.MotionEpoch = ms.Epoch
		st.MotionQueueDepth = ms.QueueDepth
		st.MotionFallbacks = ms.Fallbacks
	}
	writeJSON(w, http.StatusOK, st)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
