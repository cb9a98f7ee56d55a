// Command anonserver runs the anonymizing CSP as an HTTP service.
//
// Endpoints (also printed by -h):
//
//	GET  /healthz           readiness (200 once a snapshot is loaded) vs liveness
//	POST /v1/snapshot       install a user snapshot and compute its policy
//	POST /v1/moves          apply user moves (queued when -motion is set)
//	POST /v1/pois           install the POI database served to requests
//	GET  /v1/cloak          cloak lookup for one user (?user=U; installed engine only)
//	POST /v1/request        full LBS round: cloak + candidate POIs
//	POST /v1/request/batch  many LBS rounds in one call (amortized hot path)
//	GET  /v1/stats          CSP serving counters (cache, coalescing, POIs)
//	GET  /v1/engines        the anonymization-engine registry
//	GET  /v1/checkpoint     serialize current state to the response
//	POST /v1/restore        restore state from a checkpoint body
//	GET  /v1/motion         streaming-ingest loop statistics (-motion)
//	GET  /v1/metrics        metrics registry (JSON or ?format=prometheus)
//	GET  /v1/audit          privacy observatory rolling report
//	GET  /v1/audit/root     latest signed ledger checkpoint (-ledger)
//	GET  /v1/audit/proof    Merkle inclusion proof for one event (-ledger)
//	GET  /v1/debug/flightrecorder  flight recorder dump: retained traces + events
//	GET  /v1/debug/trace    one retained trace by ?rid= or ?tid= (&format=chrome)
//	GET  /debug/pprof/      Go profiling endpoints (unless -pprof=false)
//
// Usage:
//
//	anonserver -addr :8080 -state state.ck
//	anonserver -addr :8080 -engine casper    # default engine for snapshots
//
// Snapshot requests may override the engine per request with ?engine=NAME
// or an "engine" body field; GET /v1/engines lists the registry. Cloak
// lookups serve the installed engine only: compare engines offline with
// anoncli -engine or lbsbench -exp engines.
//
// With -state, the server restores the snapshot and policy from the file
// at startup (when it exists) and checkpoints back to it on SIGINT or
// SIGTERM, so a restarted server resumes serving cloak lookups without
// recomputation.
//
// With -motion, POST /v1/moves switches to streaming ingest: updates are
// validated and queued (202 Accepted) and a maintenance loop applies
// them in coalesced batches, publishing fresh policy snapshots that the
// serving endpoints adopt atomically. -motion-queue/-motion-batch/
// -motion-flush size the queue and batching, -motion-policy picks the
// full-queue backpressure (block or drop → 429), -motion-strategy forces
// incremental or rebuild maintenance (auto decides per batch), and
// -motion-checkpoint-every N persists -state every N batches from the
// live loop. On shutdown the queue is drained before the final
// checkpoint, so accepted updates are never lost. See docs/STREAMING.md.
//
// With -ledger, every audit event (policy audits, sampled request
// verdicts, breaches, motion snapshot swaps) is appended to a
// tamper-evident ledger: events batch into Merkle trees whose roots form
// a signed hash chain, served at GET /v1/audit/root (latest checkpoint)
// and GET /v1/audit/proof?seq=N (inclusion proof). -ledger-anchor
// persists sealed batches to an append-only file — verify it offline
// with `anoncli verify-ledger -anchor FILE` — and -ledger-key pins the
// signing identity across restarts. -ledger-batch/-ledger-flush/
// -ledger-retain tune batching and proof retention.
//
// Observability: GET /v1/metrics serves the metrics registry as JSON, or
// as Prometheus text exposition with ?format=prometheus (per-route
// request counters and latency histograms plus per-phase anonymization
// timings — bulkdp.build, bulkdp.combine, bulkdp.extract, bulkdp.update,
// csp.serve). GET /v1/audit serves the privacy observatory's rolling
// achieved-anonymity report; -audit-rate tunes its per-request sampling.
// All diagnostics are structured JSON log lines on stderr (-log-level
// selects the floor; breach records log at warn, per-request access
// records at debug), each carrying the request ID from the X-Request-ID
// header so log lines, trace spans, and metrics correlate. Unless
// -pprof=false, the Go profiling endpoints are mounted under
// /debug/pprof/ (CPU: /debug/pprof/profile, heap: /debug/pprof/heap).
//
// Serving requests are additionally traced end to end: every
// /v1/request and /v1/request/batch call gets a root span and an
// X-Trace-Id, and tail-based sampling retains the full span tree of
// interesting requests (slow against a rolling p99 threshold, errored,
// audit breaches, motion fallbacks, cache-miss flights, forced via
// X-Debug-Trace) into an in-memory flight recorder, dumpable at
// GET /v1/debug/flightrecorder and GET /v1/debug/trace?rid=... (JSON or
// ?format=chrome for chrome://tracing). -trace-requests=false disables
// the capture layer; -flight-traces/-flight-events resize the rings.
// See docs/OBSERVABILITY.md.
//
// Quick exercise:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/snapshot -d '{"k":2,"mapSide":8,
//	  "users":[{"id":"Alice","x":1,"y":1},{"id":"Bob","x":1,"y":2},
//	           {"id":"Carol","x":1,"y":4},{"id":"Sam","x":3,"y":1},
//	           {"id":"Tom","x":4,"y":4}]}'
//	curl -s 'localhost:8080/v1/cloak?user=Carol'
//	curl -s localhost:8080/v1/audit
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"policyanon/internal/audit"
	"policyanon/internal/checkpoint"
	"policyanon/internal/engine"
	"policyanon/internal/ledger"
	"policyanon/internal/motion"
	"policyanon/internal/obs/flight"
	_ "policyanon/internal/parallel" // register the "parallel" engine
	"policyanon/internal/server"
)

// endpointList is the HTTP surface printed by -h. It must match the
// routes internal/server registers and the table in the package doc
// above; TestEndpointListMatchesHandler pins the correspondence.
const endpointList = `  GET  /healthz           readiness (200 once a snapshot is loaded) vs liveness
  POST /v1/snapshot       install a user snapshot and compute its policy
  POST /v1/moves          apply user moves (queued when -motion is set)
  POST /v1/pois           install the POI database served to requests
  GET  /v1/cloak          cloak lookup for one user (?user=U; installed engine only)
  POST /v1/request        full LBS round: cloak + candidate POIs
  POST /v1/request/batch  many LBS rounds in one call (amortized hot path)
  GET  /v1/stats          CSP serving counters (cache, coalescing, POIs)
  GET  /v1/engines        the anonymization-engine registry
  GET  /v1/checkpoint     serialize current state to the response
  POST /v1/restore        restore state from a checkpoint body
  GET  /v1/motion         streaming-ingest loop statistics (-motion)
  GET  /v1/metrics        metrics registry (JSON or ?format=prometheus)
  GET  /v1/audit          privacy observatory rolling report
  GET  /v1/audit/root     latest signed ledger checkpoint (-ledger)
  GET  /v1/audit/proof    Merkle inclusion proof for one event (-ledger)
  GET  /v1/debug/flightrecorder  flight recorder dump: retained traces + events
  GET  /v1/debug/trace    one retained trace by ?rid= or ?tid= (&format=chrome)
  GET  /debug/pprof/      Go profiling endpoints (unless -pprof=false)
`

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		state     = flag.String("state", "", "checkpoint file: restored at startup, written on shutdown")
		engName   = flag.String("engine", engine.DefaultName, "default anonymization engine (see GET /v1/engines)")
		withPprof = flag.Bool("pprof", true, "mount Go profiling endpoints under /debug/pprof/")
		logLevel  = flag.String("log-level", "info", "log floor: debug, info, warn, or error")
		auditRate = flag.Float64("audit-rate", audit.DefaultRate, "fraction of /v1/request calls audited for achieved anonymity (0 disables)")

		traceReqs    = flag.Bool("trace-requests", true, "per-request tracing with tail sampling into the flight recorder (/v1/debug/flightrecorder)")
		flightTraces = flag.Int("flight-traces", 0, "flight recorder trace ring capacity (0 = flight default)")
		flightEvents = flag.Int("flight-events", 0, "flight recorder event ring capacity (0 = flight default)")

		ledgerOn     = flag.Bool("ledger", false, "tamper-evident audit ledger: Merkle-batched hash chain over audit events, served at /v1/audit/root and /v1/audit/proof")
		ledgerAnchor = flag.String("ledger-anchor", "", "append-only anchor file for sealed ledger batches (empty = in-memory anchor; verify offline with anoncli verify-ledger)")
		ledgerKey    = flag.String("ledger-key", "", "ed25519 seed file signing ledger checkpoints (created if missing; empty = ephemeral per-process key)")
		ledgerBatch  = flag.Int("ledger-batch", 0, "max events per sealed ledger batch (0 = ledger default)")
		ledgerFlush  = flag.Duration("ledger-flush", 0, "max time an appended event waits before its batch seals (0 = ledger default)")
		ledgerRetain = flag.Int("ledger-retain", 0, "sealed batches kept in memory for proof serving (0 = ledger default)")

		motionOn        = flag.Bool("motion", false, "streaming movement ingest: POST /v1/moves queues updates; a maintenance loop applies them in batches off the read path")
		motionQueue     = flag.Int("motion-queue", 0, "ingest queue capacity (0 = motion default)")
		motionBatch     = flag.Int("motion-batch", 0, "max coalesced updates per maintenance batch (0 = motion default)")
		motionFlush     = flag.Duration("motion-flush", 0, "max time a queued update waits before a flush (0 = motion default)")
		motionPolicy    = flag.String("motion-policy", "block", "backpressure when the ingest queue is full: block or drop")
		motionStrategy  = flag.String("motion-strategy", "auto", "maintenance strategy: auto, incremental, or rebuild")
		motionCkptEvery = flag.Int("motion-checkpoint-every", 0, "checkpoint -state every N applied batches (0 disables periodic checkpoints)")
	)
	// -h prints the endpoint set alongside the flags so the CLI surface and
	// the README stay in sync (the list mirrors internal/server's mux).
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: anonserver [flags]\n\nEndpoints:\n%s\nFlags:\n", endpointList)
		flag.PrintDefaults()
	}
	flag.Parse()

	level, err := audit.ParseLevel(*logLevel)
	if err != nil {
		slog.New(slog.NewJSONHandler(os.Stderr, nil)).Error("bad -log-level", "err", err)
		os.Exit(1)
	}
	logger := audit.NewJSONLogger(os.Stderr, level)
	fatal := func(msg string, attrs ...any) {
		logger.Error(msg, attrs...)
		os.Exit(1)
	}

	srv := server.New()
	srv.SetLogger(logger)
	srv.SetAuditRate(*auditRate)
	srv.SetRequestTracing(*traceReqs)
	if *flightTraces > 0 || *flightEvents > 0 {
		srv.SetFlightRecorder(flight.New(*flightTraces, *flightEvents))
	}
	if err := srv.SetDefaultEngine(*engName); err != nil {
		fatal("engine selection failed", "err", err)
	}
	// Attach the ledger before motion and state restore, so the very first
	// policy audit (a restored snapshot's install) is already on the chain.
	var led *ledger.Ledger
	var ledFile *ledger.FileAnchor
	if *ledgerOn {
		var anchor ledger.Anchor
		if *ledgerAnchor != "" {
			fa, err := ledger.OpenFileAnchor(*ledgerAnchor, srv.Metrics(), logger)
			if err != nil {
				fatal("ledger anchor open failed", "path", *ledgerAnchor, "err", err)
			}
			ledFile, anchor = fa, fa
		} else {
			anchor = ledger.NewMemAnchor()
		}
		var key ed25519.PrivateKey
		if *ledgerKey != "" {
			var err error
			key, err = ledger.LoadOrCreateKey(*ledgerKey)
			if err != nil {
				fatal("ledger key load failed", "path", *ledgerKey, "err", err)
			}
		}
		var err error
		led, err = ledger.New(anchor, ledger.Options{
			MaxBatch:      *ledgerBatch,
			FlushInterval: *ledgerFlush,
			Retain:        *ledgerRetain,
			Key:           key,
			Registry:      srv.Metrics(),
			Logger:        logger,
		})
		if err != nil {
			fatal("ledger start failed", "err", err)
		}
		srv.EnableLedger(led)
		logger.Info("ledger enabled",
			"anchor", *ledgerAnchor, "keyFile", *ledgerKey,
			"publicKey", hex.EncodeToString(led.PublicKey()))
	}
	// Arm motion before restoring state: RestoreFrom starts the pipeline
	// for the restored snapshot only if the config is already in place.
	if *motionOn {
		var bp motion.BackpressurePolicy
		switch *motionPolicy {
		case "block":
			bp = motion.Block
		case "drop":
			bp = motion.Drop
		default:
			fatal("bad -motion-policy", "value", *motionPolicy, "want", "block or drop")
		}
		strategy := motion.Strategy(*motionStrategy)
		switch strategy {
		case motion.StrategyAuto, motion.StrategyIncremental, motion.StrategyRebuild:
		default:
			fatal("bad -motion-strategy", "value", *motionStrategy, "want", "auto, incremental, or rebuild")
		}
		cfg := motion.Config{
			QueueCapacity: *motionQueue,
			MaxBatch:      *motionBatch,
			FlushInterval: *motionFlush,
			Policy:        bp,
			Strategy:      strategy,
		}
		if *state != "" && *motionCkptEvery > 0 {
			// Periodic persistence from the live loop. The callback runs on
			// the maintenance goroutine and must not reach back into the
			// server (lock-ordering), so it saves the self-contained
			// snapshot record directly.
			path := *state
			cfg.CheckpointEvery = *motionCkptEvery
			cfg.Checkpoint = func(snap *motion.Snapshot) error {
				return saveSnapshotState(path, snap)
			}
		}
		srv.EnableMotion(cfg)
		logger.Info("motion enabled", "policy", *motionPolicy, "strategy", *motionStrategy,
			"checkpointEvery", *motionCkptEvery)
	}
	if *state != "" {
		if f, err := os.Open(*state); err == nil {
			err := srv.RestoreFrom(f)
			f.Close()
			if err != nil {
				fatal("state restore failed", "path", *state, "err", err)
			}
			logger.Info("state restored", "path", *state)
		} else if !errors.Is(err, os.ErrNotExist) {
			fatal("state open failed", "path", *state, "err", err)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler(srv, *withPprof),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "engine", srv.DefaultEngine(),
			"auditRate", srv.Auditor().Rate())
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal("serve failed", "err", err)
	case <-ctx.Done():
	}
	// Graceful shutdown ordering: stop accepting requests, drain the
	// motion queue so every accepted update is applied, then write the
	// final checkpoint — no accepted batch is lost.
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown incomplete", "err", err)
	}
	if srv.MotionPipeline() != nil {
		drainCtx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.DrainMotion(drainCtx); err != nil {
			logger.Warn("motion drain incomplete", "err", err)
		} else {
			st := srv.MotionPipeline().Stats()
			logger.Info("motion drained", "epoch", st.Epoch, "moves", st.Moves, "batches", st.Batches)
		}
		dcancel()
	}
	if *state != "" {
		if err := writeCheckpoint(srv, *state); err != nil {
			logger.Warn("checkpoint failed", "path", *state, "err", err)
		} else {
			logger.Info("state checkpointed", "path", *state)
		}
	}
	// The ledger closes after the drain and checkpoint: every audit event
	// those steps emitted is sealed into a final anchored batch, so the
	// chain's head covers the process's whole life.
	if led != nil {
		closeCtx, lcancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := led.Close(closeCtx); err != nil {
			logger.Warn("ledger close incomplete", "err", err)
		}
		lcancel()
		if cp, ok := led.Latest(); ok {
			logger.Info("ledger sealed", "batchSeq", cp.BatchSeq, "chainRoot", cp.ChainRoot)
		}
		if ledFile != nil {
			if err := ledFile.Close(); err != nil {
				logger.Warn("ledger anchor close failed", "err", err)
			}
		}
	}
	logAuditSummary(logger, srv)
}

// logAuditSummary emits the final privacy report on shutdown, so even a
// scrape-less deployment leaves an achieved-anonymity record in the log.
func logAuditSummary(logger *slog.Logger, srv *server.Server) {
	rep := srv.Auditor().Report()
	if rep.PolicyAudits == 0 && rep.RequestAudits == 0 {
		return
	}
	logger.Info("final privacy report",
		"policyAudits", rep.PolicyAudits,
		"requestAudits", rep.RequestAudits,
		"minKAware", rep.Aware.Min,
		"minKUnaware", rep.Unaware.Min,
		"breachesAware", rep.Aware.Breaches,
		"breachesUnaware", rep.Unaware.Breaches,
	)
}

// handler mounts the service tree, plus the Go profiling endpoints under
// /debug/pprof/ when withPprof is set. The pprof handlers are referenced
// explicitly instead of relying on the net/http/pprof side-effect
// registration, so nothing leaks onto http.DefaultServeMux.
func handler(srv *server.Server, withPprof bool) http.Handler {
	if !withPprof {
		return srv.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeCheckpoint saves atomically via a temp file rename.
func writeCheckpoint(srv *server.Server, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := srv.CheckpointTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// saveSnapshotState persists a published motion snapshot to the -state
// file, atomically via a temp file rename. Called from the pipeline's
// maintenance loop, so it must stay free of server locks.
func saveSnapshotState(path string, snap *motion.Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := checkpoint.Save(f, snap.K, snap.Bounds, snap.Policy); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
