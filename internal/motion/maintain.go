package motion

import (
	"context"
	"errors"
	"fmt"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/obs"
	"policyanon/internal/verify"
)

// maintainer owns the live location state and applies coalesced batches to
// it. Every field is confined to the maintenance loop after construction
// (construction itself runs before the loop starts, so no locks are
// needed anywhere here). It never writes a DB object that a published
// assignment holds: a rebuild derives a new db by CloneWithMoves, and a
// matrix maintains only a db no publication is bound to (the chain
// publishes copy-on-write views of it).
type maintainer struct {
	db     *location.DB
	bounds geo.Rect
	cfg    Config
	eng    engine.Engine
	info   engine.Info
	params engine.Params

	// pub is the publication chain over the live configuration matrix
	// (Section V); non-nil only for Incremental-capable engines once a
	// matrix has been built. Rebuilds replace it so later batches can go
	// back to incremental maintenance.
	pub *core.Publisher
	// lastVerify is how long the most recent run of the publish gate took
	// (0 before the first, and always with SkipVerify).
	lastVerify time.Duration
}

// errRefused marks a publish the gate refused. apply distinguishes it from
// maintenance failures: a policy that fails verification must surface
// (rebuilding would re-derive the same policy), while a mid-batch
// maintenance failure is recovered by a rebuild.
var errRefused = errors.New("motion: refusing to publish")

func newMaintainer(db *location.DB, bounds geo.Rect, cfg Config) (*maintainer, error) {
	eng, err := engine.Get(cfg.Engine)
	if err != nil {
		return nil, err
	}
	info, _ := engine.InfoOf(cfg.Engine)
	return &maintainer{
		db:     db,
		bounds: bounds,
		cfg:    cfg,
		eng:    eng,
		info:   info,
		params: engine.Params{K: cfg.K, Opts: cfg.Opts},
	}, nil
}

// choose dispatches one batch to a maintenance strategy, driven by the
// engine's Incremental capability flag and the batch's churn fraction:
// Section V's incremental maintenance recomputes only the matrix rows
// whose relevant-subtree contents changed, which wins while batches move
// a small fraction of users and loses to a from-scratch rebuild past the
// RebuildThreshold.
func (m *maintainer) choose(moves int) Strategy {
	switch m.cfg.Strategy {
	case StrategyIncremental:
		return StrategyIncremental
	case StrategyRebuild:
		return StrategyRebuild
	}
	if !m.info.Incremental || m.pub == nil {
		return StrategyRebuild
	}
	if float64(moves) > m.cfg.RebuildThreshold*float64(m.db.Len()) {
		return StrategyRebuild
	}
	return StrategyIncremental
}

// applyResult describes one successful batch apply, ready to publish.
// Rows is the number of configuration-matrix rows recomputed
// (incremental) or the snapshot size (rebuild).
type applyResult struct {
	core.Publication
	strategy Strategy
	// fallback marks a batch whose incremental maintenance failed mid-way
	// and was recovered by a full rebuild.
	fallback bool
}

// apply performs one coalesced batch against the live state and returns
// the next policy, bound to a snapshot the loop never writes again,
// verified and ready to publish. A mid-batch incremental maintenance
// failure — which leaves the matrix inconsistent with the live DB — is
// recovered by falling back to a full rebuild instead of failing the
// batch.
func (m *maintainer) apply(ctx context.Context, moves map[int]geo.Point) (applyResult, error) {
	if m.choose(len(moves)) != StrategyIncremental {
		return m.applyRebuild(ctx, moves)
	}
	res, err := m.applyIncremental(ctx, moves)
	if err == nil || errors.Is(err, errRefused) {
		return res, err
	}
	res, ferr := m.applyRebuild(ctx, moves)
	if ferr != nil {
		return applyResult{}, fmt.Errorf(
			"motion: incremental maintenance failed (%v); rebuild fallback: %w", err, ferr)
	}
	res.fallback = true
	return res, nil
}

// applyIncremental maintains the live matrix through the batch and
// publishes through the chain: a delta while it is anchored, the full
// extract path otherwise.
func (m *maintainer) applyIncremental(ctx context.Context, moves map[int]geo.Point) (applyResult, error) {
	if m.pub == nil {
		// Forced-incremental pipeline adopted a policy without a matrix:
		// build one over a view of the pre-move state (the adopted policy
		// may hold m.db itself), then maintain it.
		m.db = m.db.CloneWithMoves(nil)
		if err := m.newPublisher(ctx); err != nil {
			return applyResult{}, err
		}
	}
	for idx, to := range moves {
		if err := m.pub.Move(idx, to); err != nil {
			return applyResult{}, err
		}
	}
	pub, err := m.pub.Publish(m.gate(ctx))
	if err != nil {
		return applyResult{}, err
	}
	return applyResult{Publication: pub, strategy: StrategyIncremental}, nil
}

// applyRebuild derives the next live DB by CloneWithMoves (a published
// policy may hold the current one) and recomputes the policy from
// scratch. Re-applying moves an aborted incremental attempt already
// performed is safe: a move sets a location, and the rebuild re-derives
// tree and matrix from the DB alone. Incremental-capable engines rebuild
// through a fresh matrix and chain, so later batches can go back to
// incremental maintenance; other engines' policies are bound to the
// derived DB.
func (m *maintainer) applyRebuild(ctx context.Context, moves map[int]geo.Point) (applyResult, error) {
	m.pub = nil // the old matrix no longer matches the live DB
	m.db = m.db.CloneWithMoves(moves)
	res := applyResult{strategy: StrategyRebuild}
	if m.info.Incremental {
		if err := m.newPublisher(ctx); err != nil {
			return applyResult{}, err
		}
		pub, err := m.pub.Publish(m.gate(ctx))
		if err != nil {
			return applyResult{}, err
		}
		res.Publication = pub
	} else {
		policy, err := m.eng.Anonymize(ctx, m.db, m.bounds, m.params)
		if err != nil {
			return applyResult{}, err
		}
		if err := m.verifyPub(ctx, policy); err != nil {
			return applyResult{}, err
		}
		res.Policy, res.RowsExtracted, res.CloaksChanged = policy, policy.Len(), policy.Len()
	}
	res.Rows = m.db.Len()
	return res, nil
}

// newPublisher builds a fresh configuration matrix over the live DB and
// starts an unanchored publication chain over it.
func (m *maintainer) newPublisher(ctx context.Context) error {
	dp, err := engine.DPOptions(m.params)
	if err != nil {
		return err
	}
	anon, err := core.NewAnonymizerContext(ctx, m.db, m.bounds, core.AnonymizerOptions{
		K:    m.cfg.K,
		Kind: m.cfg.TreeKind,
		DP:   dp,
	})
	if err != nil {
		return err
	}
	m.pub = core.NewPublisher(anon)
	return nil
}

// gate is verifyPub as the chain's publish gate.
func (m *maintainer) gate(ctx context.Context) func(*lbs.Assignment) error {
	return func(pub *lbs.Assignment) error { return m.verifyPub(ctx, pub) }
}

// verifyPub is the defence-in-depth gate of every publish (unless
// disabled): masking and k-anonymity re-derived from first principles,
// from the assignment being published and nothing else. Every publish,
// delta or full, runs the full verify.Policy. The gate runs in a
// motion.verify span that says what it found. A refusal wraps errRefused.
func (m *maintainer) verifyPub(ctx context.Context, pub *lbs.Assignment) error {
	if m.cfg.SkipVerify {
		return nil
	}
	_, sp := obs.Start(ctx, "motion.verify")
	start := time.Now()
	rep := verify.Policy(pub, m.cfg.K)
	m.lastVerify = time.Since(start)
	if sp != nil {
		survey := attacker.SurveyOf(pub) // the one the check just built
		sp.SetInt("groups", int64(len(survey.Groups())))
		sp.SetInt("cloak_table", int64(pub.TableLen()))
		sp.SetInt("min_aware", int64(rep.MinAware))
		sp.SetInt("min_unaware", int64(rep.MinUnaware))
		if err := survey.IndexErr(); err != nil {
			// No grid: the policy-unaware counts were |D| x groups scans.
			sp.SetAttr("unaware_index", "scan: "+err.Error())
		}
		sp.End()
	}
	if !rep.OK() {
		return fmt.Errorf("%w: %s", errRefused, rep.Problems[0])
	}
	return nil
}
