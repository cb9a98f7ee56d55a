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
// needed anywhere here).
type maintainer struct {
	db     *location.DB
	bounds geo.Rect
	cfg    Config
	eng    engine.Engine
	info   engine.Info
	params engine.Params

	// anon is the live configuration matrix (Section V); non-nil only for
	// Incremental-capable engines once a matrix has been built. Rebuilds
	// replace it so later batches can go back to incremental maintenance.
	anon *core.Anonymizer

	// lastPub is the most recently published assignment when the delta
	// chain is intact: the next delta publish derives from it via
	// ApplyDelta, sharing all unchanged storage. It is nil whenever the
	// matrix baseline and the published assignment may disagree (before the
	// first publish, after a failed publish, after a rebuild starts) —
	// then the next publish goes from scratch and re-anchors the chain.
	lastPub *lbs.Assignment
	// lastVerify is how long the most recent run of the publish gate took
	// (0 before the first, and always with SkipVerify).
	lastVerify time.Duration
}

// verifyError wraps a failure of the publish-gate verification. apply
// distinguishes it from maintenance failures: a policy that fails
// verification must surface (rebuilding would re-derive the same policy),
// while a mid-batch maintenance failure is recovered by a rebuild.
type verifyError struct{ err error }

func (e *verifyError) Error() string { return e.err.Error() }
func (e *verifyError) Unwrap() error { return e.err }

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
	if !m.info.Incremental || m.anon == nil {
		return StrategyRebuild
	}
	if float64(moves) > m.cfg.RebuildThreshold*float64(m.db.Len()) {
		return StrategyRebuild
	}
	return StrategyIncremental
}

// applyResult describes one successful batch apply, ready to publish.
type applyResult struct {
	policy   *lbs.Assignment
	strategy Strategy
	// rows is the number of configuration-matrix rows recomputed
	// (incremental) or the snapshot size (rebuild).
	rows int
	// rowsExtracted is the number of tree nodes the policy-exhibition pass
	// re-assigned: O(dirty subtrees) on the delta path, the full node walk
	// otherwise (reported as |D|).
	rowsExtracted int
	// cloaksChanged is the number of cloak rewrites a delta publish
	// carried; full publishes rewrite everything and report |D|.
	cloaksChanged int
	// delta marks a publish through the copy-on-write ApplyDelta path.
	delta bool
	// fallback marks a batch whose incremental maintenance failed mid-way
	// and was recovered by a full rebuild.
	fallback bool
}

// apply performs one coalesced batch against the live state and returns
// the next policy bound to an immutable snapshot (a copy-on-write delta of
// the previous one when possible, a full clone otherwise), verified and
// ready to publish. A mid-batch incremental maintenance failure — which
// leaves the matrix inconsistent with the live DB — is recovered by
// falling back to a full rebuild instead of failing the batch.
func (m *maintainer) apply(ctx context.Context, moves map[int]geo.Point) (applyResult, error) {
	if m.choose(len(moves)) == StrategyIncremental {
		res, err := m.applyIncremental(ctx, moves)
		if err == nil {
			return res, nil
		}
		var ve *verifyError
		if errors.As(err, &ve) {
			// The extracted policy itself failed the publish gate; a
			// rebuild would re-derive it, so surface instead of masking.
			return applyResult{}, ve.err
		}
		res, ferr := m.applyRebuild(ctx, moves)
		if ferr != nil {
			var fve *verifyError
			if errors.As(ferr, &fve) {
				ferr = fve.err
			}
			return applyResult{}, fmt.Errorf(
				"motion: incremental maintenance failed (%v); rebuild fallback: %w", err, ferr)
		}
		res.fallback = true
		return res, nil
	}
	res, err := m.applyRebuild(ctx, moves)
	if err != nil {
		var ve *verifyError
		if errors.As(err, &ve) {
			err = ve.err
		}
		return applyResult{}, err
	}
	return res, nil
}

// applyIncremental maintains the live matrix through the batch and
// publishes a delta when the chain allows it: ExtractDelta re-assigns only
// dirty subtrees and ApplyDelta derives the next published assignment from
// the previous one without cloning the DB or the cloaks. Any break in the
// chain (no baseline, stale parent, adoption mismatch) degrades to the
// full extract-rebind path within the same batch.
func (m *maintainer) applyIncremental(ctx context.Context, moves map[int]geo.Point) (applyResult, error) {
	if m.anon == nil {
		// Forced-incremental pipeline adopted a policy without a
		// matrix: build one over the pre-move state, then maintain it.
		if _, _, err := m.rebuild(ctx); err != nil {
			return applyResult{}, err
		}
	}
	// Capture From locations before mutating: ApplyDelta validates them
	// against the parent assignment, whose contents match the live DB
	// exactly while the chain is intact.
	var mvs []lbs.Move
	if m.lastPub != nil {
		mvs = make([]lbs.Move, 0, len(moves))
		for idx, to := range moves {
			mvs = append(mvs, lbs.Move{Index: idx, From: m.db.At(idx).Loc, To: to})
		}
	}
	for idx, to := range moves {
		if err := m.anon.Move(idx, to); err != nil {
			return applyResult{}, err
		}
	}
	rows := m.anon.Refresh()
	res := applyResult{strategy: StrategyIncremental, rows: rows}
	if m.lastPub != nil {
		changes, visited, err := m.anon.Matrix().ExtractDelta()
		if err == nil {
			pub, aerr := m.lastPub.ApplyDelta(mvs, changes)
			if aerr == nil {
				res.policy = pub
				res.rowsExtracted = visited
				res.cloaksChanged = len(changes)
				res.delta = true
				if verr := m.verifyPub(ctx, pub); verr != nil {
					// The matrix baseline advanced past lastPub when
					// ExtractDelta succeeded; the chain is broken.
					m.lastPub = nil
					return applyResult{}, &verifyError{verr}
				}
				m.lastPub = pub
				return res, nil
			}
			// The delta does not match the published parent (e.g. an
			// adopted policy differing from the matrix baseline). The
			// matrix has already absorbed the changes, so drop the chain
			// and publish from scratch; ApplyDelta's validation makes this
			// self-healing rather than silently corrupting.
			m.lastPub = nil
		}
		// ErrNoDeltaBaseline (fresh matrix) falls through likewise; other
		// extraction errors will recur below and surface there.
	}
	policy, err := m.anon.Policy()
	if err != nil {
		return applyResult{}, err
	}
	pub, err := m.rebind(policy)
	if err != nil {
		m.lastPub = nil
		return applyResult{}, err
	}
	res.policy = pub
	res.rowsExtracted = pub.Len()
	res.cloaksChanged = pub.Len()
	if verr := m.verifyPub(ctx, pub); verr != nil {
		m.lastPub = nil
		return applyResult{}, &verifyError{verr}
	}
	m.lastPub = pub
	return res, nil
}

// applyRebuild applies the batch straight to the live DB and recomputes
// the policy from scratch. Re-applying moves some of which an aborted
// incremental attempt already performed is safe: MoveAt is idempotent on
// contents, and the rebuild re-derives tree and matrix from the DB alone.
func (m *maintainer) applyRebuild(ctx context.Context, moves map[int]geo.Point) (applyResult, error) {
	m.lastPub = nil // chain is broken until this publish lands
	for idx, to := range moves {
		m.db.MoveAt(idx, to)
	}
	policy, rows, err := m.rebuild(ctx)
	if err != nil {
		return applyResult{}, err
	}
	pub, err := m.rebind(policy)
	if err != nil {
		return applyResult{}, err
	}
	res := applyResult{
		policy:        pub,
		strategy:      StrategyRebuild,
		rows:          rows,
		rowsExtracted: pub.Len(),
		cloaksChanged: pub.Len(),
	}
	if verr := m.verifyPub(ctx, pub); verr != nil {
		return applyResult{}, &verifyError{verr}
	}
	m.lastPub = pub
	return res, nil
}

// rebuild recomputes the policy from scratch over the live DB. For
// Incremental-capable engines it goes through a fresh core maintainer so
// the configuration matrix stays live for subsequent incremental batches;
// other engines are invoked directly.
func (m *maintainer) rebuild(ctx context.Context) (*lbs.Assignment, int, error) {
	if m.info.Incremental {
		dp, err := engine.DPOptions(m.params)
		if err != nil {
			return nil, 0, err
		}
		anon, err := core.NewAnonymizerContext(ctx, m.db, m.bounds, core.AnonymizerOptions{
			K:    m.cfg.K,
			Kind: m.cfg.TreeKind,
			DP:   dp,
		})
		if err != nil {
			return nil, 0, err
		}
		m.anon = anon
		policy, err := anon.Policy()
		if err != nil {
			return nil, 0, err
		}
		return policy, m.db.Len(), nil
	}
	policy, err := m.eng.Anonymize(ctx, m.db, m.bounds, m.params)
	if err != nil {
		return nil, 0, err
	}
	return policy, m.db.Len(), nil
}

// rebind binds a policy to an immutable clone of the live DB: the policy
// returned by the engine or matrix references the live state the loop
// will keep mutating, and published snapshots must never see that.
func (m *maintainer) rebind(policy *lbs.Assignment) (*lbs.Assignment, error) {
	return lbs.NewAssignment(policy.DB().Clone(), policy.Cloaks())
}

// verifyPub is the defence-in-depth gate of every publish (unless
// disabled): masking and k-anonymity re-derived from first principles,
// from the assignment being published and nothing else. Every publish,
// delta or full, runs the full verify.Policy. The gate runs in a
// motion.verify span that says what it found.
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
		sp.SetInt("min_aware", int64(rep.MinAware))
		sp.SetInt("min_unaware", int64(rep.MinUnaware))
		if err := survey.IndexErr(); err != nil {
			// No grid: the policy-unaware counts were |D| x groups scans.
			sp.SetAttr("unaware_index", "scan: "+err.Error())
		}
		sp.End()
	}
	if !rep.OK() {
		return fmt.Errorf("motion: refusing to publish: %s", rep.Problems[0])
	}
	return nil
}
