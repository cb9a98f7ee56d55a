// Package motion is the live-motion subsystem: it turns the snapshot-at-a-
// time anonymization server into a continuously maintained one. Movement
// updates stream into a bounded, batched ingest queue (a size trigger and
// a flush deadline armed by each batch's first update, explicit
// backpressure); a single maintenance loop
// coalesces each batch per user and applies it to the live location state —
// incrementally through the Section V configuration-matrix maintenance when
// the engine supports it, by a full rebuild otherwise or when a batch's
// churn crosses the rebuild threshold — and then atomically swaps a
// double-buffered snapshot so the read path never blocks on a write and
// never observes a half-applied batch.
//
// Concurrency model. Writes and reads are concurrent for the first time in
// this repository, so the ownership rules are strict:
//
//   - The live location.DB and core.Anonymizer belong exclusively to the
//     maintenance loop after New/NewWithState; no other goroutine may touch
//     them.
//   - Readers only ever see *Snapshot values through an atomic front
//     pointer. Each snapshot's policy is bound to a location DB the loop
//     never writes again (location.DB's one copy-on-write rule: storage
//     that has been shared is never written in place), so a (snapshot,
//     policy) pair is internally consistent forever, even while the loop
//     mutates the live state behind it.
//   - The swap is double-buffered: the loop builds the next snapshot in its
//     private back buffer and publishes it with a single atomic store; the
//     previous front remains valid for readers that still hold it (the GC
//     reclaims it when the last reader drops it, which is what makes the
//     buffer reuse safe without read locks).
//
// Backpressure. The queue holds at most QueueCapacity updates: each
// update takes one token of a fixed-capacity channel, which the
// maintenance loop returns when it takes the update off the queue. One
// EnqueueBatch call (one POST /v1/moves) is one queue element, so the
// loop wakes once per call, not once per update. Under the Block policy,
// EnqueueBatch waits for tokens (bounded by its context); under Drop it
// rejects the first update that finds none with ErrQueueFull so the
// caller can shed load explicitly (the HTTP layer maps it to 429). Either
// way the queue cannot grow without bound, and its depth is exported
// continuously.
//
// Validation. Updates are validated at the ingest boundary against the
// published snapshot: non-finite or out-of-bounds coordinates, unknown
// users, and moves that violate the bounded-motion model (more than
// MaxMoveMeters from the user's last published location; the paper bounds
// movement by 200 m per 10 s snapshot interval) are rejected with typed
// errors and per-reason counters instead of corrupting the location DB.
package motion

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/obs"
	"policyanon/internal/obs/flight"
	"policyanon/internal/tree"
)

// Update is one user movement on its way into the pipeline. Coordinates
// are float64 at this boundary — the one place the system accepts
// unvalidated numeric input — so non-finite values can be detected and
// rejected instead of being silently truncated into the int32 domain.
type Update struct {
	UserID string
	X, Y   float64
}

// BackpressurePolicy selects what Enqueue does when the queue is full.
type BackpressurePolicy int

const (
	// Block makes Enqueue wait for queue space (bounded by its context).
	Block BackpressurePolicy = iota
	// Drop makes Enqueue reject the incoming update with ErrQueueFull.
	Drop
)

// String names the policy.
func (p BackpressurePolicy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("BackpressurePolicy(%d)", int(p))
	}
}

// Strategy selects how batches are applied to the matrix.
type Strategy string

const (
	// StrategyAuto applies incrementally when the engine supports it and
	// the batch churn is below RebuildThreshold, rebuilding otherwise.
	StrategyAuto Strategy = "auto"
	// StrategyIncremental always maintains incrementally (requires an
	// Incremental-capable engine).
	StrategyIncremental Strategy = "incremental"
	// StrategyRebuild always recomputes the policy from scratch.
	StrategyRebuild Strategy = "rebuild"
)

// Errors returned by Enqueue.
var (
	// ErrClosed reports an enqueue after Close: the pipeline has stopped
	// accepting moves and is draining.
	ErrClosed = errors.New("motion: pipeline closed")
	// ErrQueueFull reports that the Drop backpressure policy shed the
	// incoming update.
	ErrQueueFull = errors.New("motion: ingest queue full")
)

// Reject reasons, used as RejectError.Reason and metric label suffixes.
const (
	ReasonNonFinite   = "nonfinite"
	ReasonOutOfBounds = "bounds"
	ReasonUnknownUser = "unknown"
	ReasonSpeed       = "speed"
)

// RejectError is a validation failure at the ingest boundary; Reason is
// one of the Reason* constants and selects the metrics counter bumped.
type RejectError struct {
	Reason string
	Detail string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("motion: rejected update (%s): %s", e.Reason, e.Detail)
}

// Config parameterizes a Pipeline. The zero value is completed with the
// documented defaults by New.
type Config struct {
	// Engine is the registry name of the anonymization engine (default
	// engine.DefaultName). Its Incremental capability flag decides whether
	// batches can be maintained through the configuration matrix.
	Engine string
	// K is the anonymity parameter (required, >= 1).
	K int
	// Opts carries engine options by name (e.g. "workers").
	Opts map[string]string
	// TreeKind selects the cloaking tree of the core maintainer used for
	// incremental engines (default tree.Binary, the Section V
	// semi-quadrant tree; the matrix maintenance itself is kind-agnostic).
	TreeKind tree.Kind

	// QueueCapacity bounds the ingest queue, counted in updates however
	// they were enqueued (default 4096).
	QueueCapacity int
	// MaxBatch is the size trigger: a batch is flushed as soon as it holds
	// this many updates, and before an EnqueueBatch call's updates that
	// would not fit in it whole, so a call of at most MaxBatch updates is
	// applied in one batch; a longer one is cut into batches of MaxBatch
	// (default 512).
	MaxBatch int
	// FlushInterval is the flush deadline: the longest a queued update
	// waits before its batch is applied. The deadline is armed when the
	// first update enters an empty batch, counted from when that update
	// was enqueued, and disarmed when the batch flushes (default 50 ms).
	FlushInterval time.Duration
	// Policy selects the backpressure behaviour of a full queue (default
	// Block).
	Policy BackpressurePolicy

	// Strategy selects incremental-vs-rebuild dispatch (default
	// StrategyAuto).
	Strategy Strategy
	// RebuildThreshold is the batch churn fraction (coalesced moves /
	// users) above which StrategyAuto falls back to a full rebuild
	// (default 0.25). The incremental maintenance of Fig. 5b wins far
	// below it and loses far above it.
	RebuildThreshold float64
	// MaxMoveMeters is the bounded-motion validation limit per update
	// against the user's last published location (default 200, the
	// paper's 200 m / 10 s model; negative disables the check).
	MaxMoveMeters float64
	// SkipVerify disables the defence-in-depth policy verification before
	// each snapshot swap. Verification re-derives masking and k-anonymity
	// from first principles (internal/verify); leave it on in production.
	SkipVerify bool

	// CheckpointEvery persists state every N applied batches through
	// Checkpoint (0 disables periodic persistence; the final drain always
	// checkpoints when Checkpoint is set).
	CheckpointEvery int
	// Checkpoint persists a freshly published snapshot; it runs on the
	// maintenance loop, so it must not call back into the pipeline.
	Checkpoint func(*Snapshot) error
	// OnSwap observes every published snapshot (including the initial
	// one); it runs on the maintenance loop, so it must not block or call
	// back into the pipeline.
	OnSwap func(*Snapshot)

	// Registry receives the motion_* metric families (default: a private
	// registry).
	Registry *metrics.Registry
	// Logger receives apply/drain diagnostics (nil disables logging).
	Logger *slog.Logger
	// Flight, when set (and BaseContext carries an obs tracer), opens a
	// trace capture around every applied batch and retains its span tree
	// into the recorder when the batch fell back to a full rebuild or the
	// apply errored — the motion analogue of the server's tail sampling.
	// Fallbacks and errors are also pinned to the recorder's event ring.
	Flight *flight.Recorder
	// BaseContext is the maintenance loop's context, e.g. to carry an
	// obs.Tracer (default context.Background()).
	BaseContext context.Context
}

// withDefaults validates and completes the configuration.
func (c Config) withDefaults() (Config, error) {
	if c.K < 1 {
		return c, fmt.Errorf("motion: K must be >= 1, got %d", c.K)
	}
	if c.Engine == "" {
		c.Engine = engine.DefaultName
	}
	if _, err := engine.Get(c.Engine); err != nil {
		return c, err
	}
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 4096
	}
	if c.QueueCapacity < 1 {
		return c, fmt.Errorf("motion: QueueCapacity must be >= 1, got %d", c.QueueCapacity)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 512
	}
	if c.MaxBatch < 1 {
		return c, fmt.Errorf("motion: MaxBatch must be >= 1, got %d", c.MaxBatch)
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.FlushInterval < 0 {
		return c, fmt.Errorf("motion: FlushInterval must be positive, got %v", c.FlushInterval)
	}
	switch c.Strategy {
	case "":
		c.Strategy = StrategyAuto
	case StrategyAuto, StrategyIncremental, StrategyRebuild:
	default:
		return c, fmt.Errorf("motion: unknown strategy %q", c.Strategy)
	}
	info, _ := engine.InfoOf(c.Engine)
	if c.Strategy == StrategyIncremental && !info.Incremental {
		return c, fmt.Errorf("motion: engine %q is not incremental-capable", c.Engine)
	}
	if c.RebuildThreshold == 0 {
		c.RebuildThreshold = 0.25
	}
	if c.MaxMoveMeters == 0 {
		c.MaxMoveMeters = 200
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("motion: CheckpointEvery must be >= 0, got %d", c.CheckpointEvery)
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.BaseContext == nil {
		c.BaseContext = context.Background()
	}
	return c, nil
}

// Snapshot is one published (location snapshot, policy) pair. Snapshots
// are immutable after publication; readers may hold them indefinitely.
type Snapshot struct {
	// Policy is the cloak assignment, bound to the location DB as it stood
	// when the producing batch finished applying; the loop never writes
	// that DB again.
	Policy *lbs.Assignment
	// K, Bounds, Engine and Opts echo the pipeline configuration so a
	// snapshot is a self-contained persistence record: a Checkpoint
	// callback can save it without reaching back into the pipeline (or
	// any lock).
	K      int
	Bounds geo.Rect
	Engine string
	Opts   map[string]string
	// Epoch counts published snapshots, starting at 1 for the initial one.
	Epoch int64
	// Strategy records how this snapshot was produced: "initial",
	// "incremental", or "rebuild".
	Strategy string
	// Moves is the number of coalesced moves the producing batch applied.
	Moves int
	// Rows is the number of configuration-matrix rows recomputed
	// (incremental) or the full snapshot size (rebuild).
	Rows int
	// RowsExtracted is the number of tree nodes the policy-exhibition pass
	// re-assigned: O(dirty subtrees) for delta publishes, |D| otherwise.
	RowsExtracted int
	// CloaksChanged is the number of per-user cloak rewrites this snapshot
	// carries relative to its predecessor (|D| for full publishes).
	CloaksChanged int
	// Delta marks a snapshot published through the copy-on-write
	// ApplyDelta path, sharing unchanged storage with its predecessor.
	Delta bool
	// Fallback marks a snapshot produced by the full-rebuild recovery of a
	// failed incremental batch.
	Fallback bool
	// AppliedAt is when the snapshot was published.
	AppliedAt time.Time
	// ApplyTime is the wall time of the producing apply (maintenance +
	// extraction + verification).
	ApplyTime time.Duration
}

// queued is one validated update inside the queue: the record index is
// resolved at the boundary so the loop never does map lookups.
type queued struct {
	idx int
	to  geo.Point
}

// element is one queue element: the updates one EnqueueBatch call
// admitted, in order, and when they entered the queue.
type element struct {
	items []queued
	at    time.Time
}

// Stats is a point-in-time view of the pipeline.
type Stats struct {
	Epoch          int64   `json:"epoch"`
	QueueDepth     int     `json:"queueDepth"`
	QueueCapacity  int     `json:"queueCapacity"`
	Enqueued       int64   `json:"enqueued"`
	Dropped        int64   `json:"dropped"`
	Rejected       int64   `json:"rejected"`
	Batches        int64   `json:"batches"`
	Moves          int64   `json:"moves"`
	Rows           int64   `json:"rowsRecomputed"`
	Incremental    int64   `json:"incrementalApplies"`
	Rebuilds       int64   `json:"rebuildApplies"`
	RowsExtracted  int64   `json:"rowsExtracted"`
	CloaksChanged  int64   `json:"cloaksChanged"`
	DeltaPublishes int64   `json:"deltaPublishes"`
	Fallbacks      int64   `json:"fallbacks"`
	VerifyFailures int64   `json:"verifyFailures"`
	Checkpoints    int64   `json:"checkpoints"`
	LastBatch      int     `json:"lastBatch"`
	LastApplyMs    float64 `json:"lastApplyMs"`
	// LastVerifyMs is what the publish gate's most recent verification
	// took (0 when none ran: SkipVerify); it is part of LastApplyMs.
	LastVerifyMs float64 `json:"lastVerifyMs"`
	// LastQueueWaitMs is how long the last applied batch's oldest update
	// waited in the queue before the apply started.
	LastQueueWaitMs float64 `json:"lastQueueWaitMs"`
	Closed          bool    `json:"closed"`
}

// Pipeline is the streaming-update subsystem. Create with New or
// NewWithState; feed with Enqueue; read with Snapshot/Policy; stop with
// Close.
type Pipeline struct {
	cfg Config
	m   *maintainer

	// q carries one element per EnqueueBatch call; slots holds one token
	// per queued update, so QueueCapacity bounds updates, not elements,
	// and q (of the same capacity) never blocks a sender holding tokens.
	q      chan element
	slots  chan struct{}
	sendMu sync.RWMutex // write-held only by Close; guards closed+q close
	closed bool

	// front is the published buffer of the double-buffered snapshot; the
	// maintenance loop owns the back buffer it is building.
	front atomic.Pointer[Snapshot]

	done      chan struct{}
	closeOnce sync.Once

	enqueued       atomic.Int64
	dropped        atomic.Int64
	rejected       atomic.Int64
	batches        atomic.Int64
	moves          atomic.Int64
	rows           atomic.Int64
	incremental    atomic.Int64
	rebuilds       atomic.Int64
	rowsExtracted  atomic.Int64
	cloaksChanged  atomic.Int64
	deltaPublishes atomic.Int64
	fallbacks      atomic.Int64
	verifyFailures atomic.Int64
	checkpoints    atomic.Int64
	lastBatch      atomic.Int64
	lastApplyNs    atomic.Int64
	lastVerifyNs   atomic.Int64
	lastQueueWait  atomic.Int64
	isClosed       atomic.Bool

	// The registry handles of the per-move metrics, looked up once:
	// Enqueue and the maintenance loop would otherwise take the registry's
	// mutex by name for every move, against each other.
	enqueuedC  *metrics.Counter
	droppedC   *metrics.Counter
	rejectedC  *metrics.Counter
	rejectedBy map[string]*metrics.Counter // reason -> motion_rejected:<reason>
	queueDepth *metrics.Gauge
}

// New builds the initial policy over db (taking ownership of it) and
// starts the maintenance loop.
func New(db *location.DB, bounds geo.Rect, cfg Config) (*Pipeline, error) {
	return NewWithState(db, bounds, cfg, nil, nil)
}

// NewWithState is New for callers that already computed the snapshot's
// state (e.g. the HTTP server after /v1/snapshot): anon, when non-nil, is
// adopted as the live configuration matrix over db; policy, when non-nil,
// is published as epoch 1 once the gate passes it. The pipeline takes
// ownership of db and anon and never writes policy's DB, which may be db
// only when anon is nil (the matrix maintains its DB in place).
func NewWithState(db *location.DB, bounds geo.Rect, cfg Config, anon *core.Anonymizer, policy *lbs.Assignment) (*Pipeline, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if db.Len() < cfg.K {
		return nil, fmt.Errorf("motion: %d users below k=%d", db.Len(), cfg.K)
	}
	m, err := newMaintainer(db, bounds, cfg)
	if err != nil {
		return nil, err
	}
	if anon != nil {
		m.pub = core.NewPublisher(anon)
	}
	reg := cfg.Registry
	p := &Pipeline{
		cfg:        cfg,
		m:          m,
		q:          make(chan element, cfg.QueueCapacity),
		slots:      make(chan struct{}, cfg.QueueCapacity),
		done:       make(chan struct{}),
		enqueuedC:  reg.Counter("motion_enqueued"),
		droppedC:   reg.Counter("motion_dropped"),
		rejectedC:  reg.Counter("motion_rejected"),
		rejectedBy: map[string]*metrics.Counter{},
		queueDepth: reg.Gauge("motion_queue_depth"),
	}
	for _, reason := range []string{ReasonNonFinite, ReasonOutOfBounds, ReasonUnknownUser, ReasonSpeed} {
		p.rejectedBy[reason] = reg.Counter("motion_rejected:" + reason)
	}
	initial, err := p.initialSnapshot(policy)
	if err != nil {
		return nil, err
	}
	p.publish(initial)
	go p.loop()
	return p, nil
}

// initialSnapshot adopts (or computes) the epoch-1 snapshot.
func (p *Pipeline) initialSnapshot(policy *lbs.Assignment) (*Snapshot, error) {
	start := time.Now()
	pub := policy
	if pub == nil {
		res, err := p.m.applyRebuild(p.cfg.BaseContext, nil)
		if err != nil {
			return nil, err
		}
		pub = res.Policy
	} else {
		if err := p.m.verifyPub(p.cfg.BaseContext, pub); err != nil {
			return nil, err
		}
		if p.m.pub != nil {
			// Anchor the adopted matrix's chain: subsequent incremental
			// batches derive their published assignments from this one.
			p.m.pub.Anchor(pub)
		}
	}
	return &Snapshot{
		Policy:        pub,
		K:             p.cfg.K,
		Bounds:        p.m.bounds,
		Engine:        p.cfg.Engine,
		Opts:          p.cfg.Opts,
		Epoch:         1,
		Strategy:      "initial",
		Rows:          pub.Len(),
		RowsExtracted: pub.Len(),
		CloaksChanged: pub.Len(),
		AppliedAt:     start,
		ApplyTime:     time.Since(start),
	}, nil
}

// Snapshot returns the currently published snapshot. It never blocks.
func (p *Pipeline) Snapshot() *Snapshot { return p.front.Load() }

// Epoch returns the published snapshot's epoch.
func (p *Pipeline) Epoch() int64 { return p.front.Load().Epoch }

// Config returns the pipeline's effective (defaulted) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Stats returns a point-in-time view of the pipeline's accounting.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Epoch:           p.Epoch(),
		QueueDepth:      len(p.slots),
		QueueCapacity:   p.cfg.QueueCapacity,
		Enqueued:        p.enqueued.Load(),
		Dropped:         p.dropped.Load(),
		Rejected:        p.rejected.Load(),
		Batches:         p.batches.Load(),
		Moves:           p.moves.Load(),
		Rows:            p.rows.Load(),
		Incremental:     p.incremental.Load(),
		Rebuilds:        p.rebuilds.Load(),
		RowsExtracted:   p.rowsExtracted.Load(),
		CloaksChanged:   p.cloaksChanged.Load(),
		DeltaPublishes:  p.deltaPublishes.Load(),
		Fallbacks:       p.fallbacks.Load(),
		VerifyFailures:  p.verifyFailures.Load(),
		Checkpoints:     p.checkpoints.Load(),
		LastBatch:       int(p.lastBatch.Load()),
		LastApplyMs:     float64(p.lastApplyNs.Load()) / 1e6,
		LastVerifyMs:    float64(p.lastVerifyNs.Load()) / 1e6,
		LastQueueWaitMs: float64(p.lastQueueWait.Load()) / 1e6,
		Closed:          p.isClosed.Load(),
	}
}

// setQueueDepth exports the queue depth in updates (one token each), the
// unit of Stats.QueueDepth.
func (p *Pipeline) setQueueDepth() { p.queueDepth.Set(int64(len(p.slots))) }

// validate resolves and checks an update, returning its queued form or
// the *RejectError that refuses it. It counts nothing: a reject is
// counted by reject, once it is the error a call reports.
func (p *Pipeline) validate(u Update) (queued, *RejectError) {
	if math.IsNaN(u.X) || math.IsNaN(u.Y) || math.IsInf(u.X, 0) || math.IsInf(u.Y, 0) {
		return queued{}, &RejectError{ReasonNonFinite, fmt.Sprintf("user %q moved to (%v,%v)", u.UserID, u.X, u.Y)}
	}
	b := p.m.bounds
	if u.X < float64(b.MinX) || u.X >= float64(b.MaxX) || u.Y < float64(b.MinY) || u.Y >= float64(b.MaxY) {
		return queued{}, &RejectError{ReasonOutOfBounds, fmt.Sprintf("user %q moved to (%v,%v) outside %v", u.UserID, u.X, u.Y, b)}
	}
	to := geo.Point{X: int32(math.Floor(u.X)), Y: int32(math.Floor(u.Y))}
	// Resolve against the published clone: same users, same insertion
	// order as the live DB, and reading it is lock-free.
	pub := p.front.Load().Policy.DB()
	idx := pub.Index(u.UserID)
	if idx < 0 {
		return queued{}, &RejectError{ReasonUnknownUser, fmt.Sprintf("user %q not in the snapshot", u.UserID)}
	}
	if max := p.cfg.MaxMoveMeters; max >= 0 {
		from := pub.At(idx).Loc
		dx, dy := u.X-float64(from.X), u.Y-float64(from.Y)
		if dist := math.Hypot(dx, dy); dist > max {
			return queued{}, &RejectError{ReasonSpeed, fmt.Sprintf(
				"user %q moved %.0f m since the last published snapshot (bound %.0f m)", u.UserID, dist, max)}
		}
	}
	return queued{idx: idx, to: to}, nil
}

// reject counts a validation failure under its reason.
func (p *Pipeline) reject(rej *RejectError) {
	p.rejected.Add(1)
	p.rejectedC.Inc()
	p.rejectedBy[rej.Reason].Inc()
}

// Enqueue validates one update and admits it to the ingest queue; it is
// EnqueueBatch of one update.
func (p *Pipeline) Enqueue(ctx context.Context, u Update) error {
	_, err := p.EnqueueBatch(ctx, []Update{u})
	return err
}

// EnqueueBatch validates us in order and admits the valid prefix to the
// ingest queue as one element, so the maintenance loop takes it in one
// wake-up and, when it fits MaxBatch, applies it in one batch. It returns
// how many updates were queued and why the rest were not: a *RejectError
// for the first invalid update, ErrQueueFull when the Drop policy sheds
// load, ErrClosed after Close, or the context error when the Block policy
// waits past the caller's deadline. Updates are refused exactly where
// one Enqueue per update would have stopped: the first queued updates
// stay queued, and a reject past a full queue is never counted.
func (p *Pipeline) EnqueueBatch(ctx context.Context, us []Update) (int, error) {
	items := make([]queued, 0, len(us))
	var rej *RejectError
	for _, u := range us {
		it, r := p.validate(u)
		if r != nil {
			rej = r
			break
		}
		items = append(items, it)
	}
	n, err := p.admit(ctx, items)
	if err == nil && rej != nil {
		p.reject(rej)
		return n, rej
	}
	return n, err
}

// admit takes one token per item and sends the items as one element. A
// sender never waits while holding tokens it has not sent: when the queue
// is full it first sends what it holds, so the loop can always drain the
// tokens taken and concurrent senders cannot deadlock on each other.
func (p *Pipeline) admit(ctx context.Context, items []queued) (int, error) {
	if len(items) == 0 {
		return 0, nil // a reject at the first update outranks ErrClosed
	}
	p.sendMu.RLock()
	defer p.sendMu.RUnlock()
	if p.closed {
		return 0, ErrClosed
	}
	sent := 0
	send := func(n int) {
		if n > sent {
			p.q <- element{items: items[sent:n], at: time.Now()}
			p.enqueued.Add(int64(n - sent))
			p.enqueuedC.Add(int64(n - sent))
			p.queueDepth.Set(int64(len(p.slots)))
			sent = n
		}
	}
	for held := 0; held < len(items); held++ {
		select {
		case p.slots <- struct{}{}:
			continue
		default:
		}
		send(held)
		if p.cfg.Policy == Drop {
			p.dropped.Add(1)
			p.droppedC.Inc()
			return sent, ErrQueueFull
		}
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			return sent, ctx.Err()
		}
	}
	send(len(items))
	return sent, nil
}

// Close stops accepting moves, drains the ingest queue, applies the final
// batch, writes a final checkpoint (when configured), and returns once
// the maintenance loop has exited or ctx expires. It is idempotent.
func (p *Pipeline) Close(ctx context.Context) error {
	p.closeOnce.Do(func() {
		p.isClosed.Store(true)
		p.sendMu.Lock()
		p.closed = true
		close(p.q)
		p.sendMu.Unlock()
	})
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("motion: drain interrupted: %w", ctx.Err())
	}
}

// loop is the maintenance goroutine: batch, coalesce, apply, swap. A batch
// is flushed by the size trigger or by its deadline, which the first
// update to enter the empty batch arms and the flush disarms: no timer
// runs while the batch is empty.
func (p *Pipeline) loop() {
	defer close(p.done)
	deadline := time.NewTimer(time.Hour)
	deadline.Stop()
	batch := make([]queued, 0, p.cfg.MaxBatch)
	var oldest time.Time
	flush := func() {
		if len(batch) > 0 {
			deadline.Stop()
			p.apply(batch, oldest)
			batch = batch[:0]
		}
	}
	for {
		select {
		case e, ok := <-p.q:
			if !ok {
				// Drain complete: the queue is closed and empty.
				flush()
				p.finalCheckpoint()
				return
			}
			for range e.items {
				<-p.slots
			}
			p.setQueueDepth()
			if len(batch)+len(e.items) > p.cfg.MaxBatch {
				flush() // keep the element whole if it fits a batch alone
			}
			for items := e.items; len(items) > 0; {
				if len(batch) == 0 {
					oldest = e.at
					deadline.Reset(time.Until(e.at.Add(p.cfg.FlushInterval)))
				}
				n := min(len(items), p.cfg.MaxBatch-len(batch))
				batch, items = append(batch, items[:n]...), items[n:]
				if len(batch) >= p.cfg.MaxBatch {
					flush()
				}
			}
		case <-deadline.C:
			flush()
		}
	}
}

// apply coalesces one batch per user (last write wins), applies it through
// the maintainer, and publishes the resulting snapshot. With a flight
// recorder configured, the batch runs inside a trace capture whose span
// tree is retained when the batch is interesting (fallback or error).
// oldest is when the batch's first update entered the queue.
func (p *Pipeline) apply(batch []queued, oldest time.Time) {
	wallStart := time.Now()
	wait := wallStart.Sub(oldest)
	p.lastQueueWait.Store(wait.Nanoseconds())
	base := p.cfg.BaseContext
	var cap *obs.Capture
	if p.cfg.Flight != nil && obs.TracerFrom(base) != nil {
		cap = obs.NewCapture(flight.MintTraceID(), 0)
		base = obs.WithCapture(base, cap)
	}
	fellBack, applyErr := p.applyBatch(base, batch, wait)
	if cap != nil {
		p.recordFlight(cap, wallStart, time.Since(wallStart), len(batch), fellBack, applyErr)
	}
}

// recordFlight is the motion side of tail-based sampling: fallbacks and
// apply errors land in the flight recorder's event ring, and their
// batch's full span tree is retained for GET /v1/debug/trace.
func (p *Pipeline) recordFlight(cap *obs.Capture, start time.Time, elapsed time.Duration, batchLen int, fellBack bool, applyErr error) {
	rec := p.cfg.Flight
	var reasons []string
	if applyErr != nil {
		reasons = append(reasons, flight.ReasonError)
		rec.Emit(&flight.Event{
			Time: time.Now(), Kind: "motion_apply_error",
			TraceID: cap.TraceID(), Detail: applyErr.Error(),
		})
	}
	if fellBack {
		reasons = append(reasons, flight.ReasonFallback)
		rec.Emit(&flight.Event{
			Time: time.Now(), Kind: "motion_fallback",
			TraceID: cap.TraceID(), Detail: fmt.Sprintf("batch of %d fell back to full rebuild", batchLen),
		})
	}
	reasons = append(reasons, cap.Marks()...)
	if len(reasons) == 0 {
		return
	}
	rec.Retain(&flight.Trace{
		TraceID: cap.TraceID(), Route: "motion.batch",
		Start: start, Dur: elapsed, Reasons: reasons,
		Spans: cap.Spans(), SpansDropped: cap.Dropped(),
	})
}

func (p *Pipeline) applyBatch(base context.Context, batch []queued, wait time.Duration) (fellBack bool, applyErr error) {
	ctx, sp := obs.Start(base, "motion.apply")
	if sp != nil {
		sp.SetInt("batch", int64(len(batch)))
		sp.SetAttr("queue_wait_ms", strconv.FormatFloat(float64(wait.Microseconds())/1000, 'f', 3, 64))
		defer sp.End()
	}
	// Coalesce: one DB/matrix touch per user however often it moved while
	// queued. Iterating in arrival order makes the last update win.
	coalesced := make(map[int]geo.Point, len(batch))
	for _, it := range batch {
		coalesced[it.idx] = it.to
	}
	start := time.Now()
	res, err := p.m.apply(ctx, coalesced)
	if err != nil {
		// An apply error leaves the previous snapshot published; moves of
		// the failed batch stay applied to the live DB and are re-covered
		// by the next batch's maintenance (rebuilds always re-derive from
		// the live DB).
		p.verifyFailures.Add(1)
		p.cfg.Registry.Counter("motion_verify_failures").Inc()
		if p.cfg.Logger != nil {
			p.cfg.Logger.Error("motion apply failed", "err", err, "batch", len(batch))
		}
		return false, err
	}
	elapsed := time.Since(start)
	prev := p.front.Load()
	next := &Snapshot{
		Policy:        res.Policy,
		K:             p.cfg.K,
		Bounds:        p.m.bounds,
		Engine:        p.cfg.Engine,
		Opts:          p.cfg.Opts,
		Epoch:         prev.Epoch + 1,
		Strategy:      string(res.strategy),
		Moves:         len(coalesced),
		Rows:          res.Rows,
		RowsExtracted: res.RowsExtracted,
		CloaksChanged: res.CloaksChanged,
		Delta:         res.Delta,
		Fallback:      res.fallback,
		AppliedAt:     time.Now(),
		ApplyTime:     elapsed,
	}
	// Account before publishing: anyone who observes the new epoch also
	// observes counters that cover it (readers adopt snapshots keyed on
	// the epoch and copy Stats at adoption time).
	p.batches.Add(1)
	p.moves.Add(int64(len(coalesced)))
	p.rows.Add(int64(res.Rows))
	p.rowsExtracted.Add(int64(res.RowsExtracted))
	p.cloaksChanged.Add(int64(res.CloaksChanged))
	if res.Delta {
		p.deltaPublishes.Add(1)
	}
	if res.fallback {
		p.fallbacks.Add(1)
	}
	p.lastBatch.Store(int64(len(coalesced)))
	p.lastApplyNs.Store(elapsed.Nanoseconds())
	p.publish(next)

	reg := p.cfg.Registry
	reg.Counter("motion_batches").Inc()
	reg.Counter("motion_moves").Add(int64(len(coalesced)))
	reg.Counter("motion_rows_extracted").Add(int64(res.RowsExtracted))
	reg.Counter("motion_cloaks_changed").Add(int64(res.CloaksChanged))
	reg.ValueHistogram("motion_batch_size").Observe(int64(len(coalesced)))
	reg.Histogram("motion_apply_latency").Observe(elapsed)
	reg.Gauge("motion_epoch").Set(next.Epoch)
	p.setQueueDepth()
	if res.strategy == StrategyIncremental {
		p.incremental.Add(1)
		reg.Counter("motion_apply_incremental").Inc()
	} else {
		p.rebuilds.Add(1)
		reg.Counter("motion_apply_rebuild").Inc()
	}
	if res.Delta {
		reg.Counter("motion_delta_publishes").Inc()
	}
	if res.fallback {
		reg.Counter("motion_fallback_total").Inc()
	}
	if sp != nil {
		sp.SetAttr("strategy", string(res.strategy))
		sp.SetInt("moves", int64(len(coalesced)))
		sp.SetInt("rows", int64(res.Rows))
		sp.SetInt("rows_extracted", int64(res.RowsExtracted))
		sp.SetInt("cloaks_changed", int64(res.CloaksChanged))
		if res.Delta {
			sp.SetAttr("publish", "delta")
		} else {
			sp.SetAttr("publish", "full")
		}
	}
	if p.cfg.Logger != nil {
		p.cfg.Logger.Debug("motion batch applied",
			"epoch", next.Epoch, "strategy", next.Strategy,
			"moves", next.Moves, "rows", res.Rows,
			"rowsExtracted", res.RowsExtracted, "cloaksChanged", res.CloaksChanged,
			"delta", res.Delta, "fallback", res.fallback,
			"ms", float64(elapsed.Microseconds())/1000)
	}
	if n := p.cfg.CheckpointEvery; n > 0 && p.cfg.Checkpoint != nil && p.batches.Load()%int64(n) == 0 {
		p.checkpoint(next)
	}
	return res.fallback, nil
}

// publish swaps the snapshot front buffer and notifies the observer.
func (p *Pipeline) publish(s *Snapshot) {
	p.lastVerifyNs.Store(p.m.lastVerify.Nanoseconds())
	p.front.Store(s)
	if p.cfg.OnSwap != nil {
		p.cfg.OnSwap(s)
	}
}

// checkpoint persists one snapshot, counting failures instead of dying:
// persistence is best-effort, serving is not.
func (p *Pipeline) checkpoint(s *Snapshot) {
	if err := p.cfg.Checkpoint(s); err != nil {
		p.cfg.Registry.Counter("motion_checkpoint_failures").Inc()
		if p.cfg.Logger != nil {
			p.cfg.Logger.Warn("motion checkpoint failed", "epoch", s.Epoch, "err", err)
		}
		return
	}
	p.checkpoints.Add(1)
	p.cfg.Registry.Counter("motion_checkpoints").Inc()
}

// finalCheckpoint persists the last published snapshot during drain.
func (p *Pipeline) finalCheckpoint() {
	if p.cfg.Checkpoint == nil {
		return
	}
	p.checkpoint(p.front.Load())
	if p.cfg.Logger != nil {
		p.cfg.Logger.Info("motion final checkpoint", "epoch", p.Epoch(), "moves", p.moves.Load())
	}
}
