// Package engine is the unified policy-engine layer: one interface that
// every anonymization algorithm in the repository — the paper's optimal
// policy-aware Bulk_dp family, the adaptive-orientation variant, the
// multi-k extension, and the prior-art k-inside baselines (Casper, PUB,
// PUQ, HilbertCloak, FindMBC) — plugs into, a name-keyed registry that
// serving and benchmarking surfaces resolve engines from, and a
// middleware stack (tracing, metrics, post-hoc verification, snapshot
// caching) that composes orthogonally over any engine.
//
// The layer exists so that the paper's central comparison (Section VI:
// Bulk_dp's policy-aware optimum vs. the k-inside family) is a loop over
// registry names instead of a hand-wired call per algorithm, and so that
// the HTTP server, the in-process parallel deployment, and the benchmark
// harness are all engine-agnostic.
//
// Engine names are stable identifiers (see docs/ENGINES.md for the
// taxonomy): bulkdp-binary, bulkdp-quad, bulkdp-naive, adaptive, multik,
// casper, pub, puq, hilbert, mbc, and — registered by the parallel
// package when it is linked in — parallel.
package engine

import (
	"context"
	"errors"
	"fmt"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// Params carries the anonymity requirements of one Anonymize call.
type Params struct {
	// K is the uniform anonymity parameter (required by every engine
	// except multik when Ks is set).
	K int
	// Ks, when non-empty, requests per-user anonymity levels (one entry
	// per record of the snapshot). Engines without multi-k support ignore
	// it and use K.
	Ks []int
	// Opts carries engine-specific string options (e.g. "maxdepth",
	// "servers", the DP ablation switches). Unknown keys are ignored.
	Opts map[string]string
}

// EffectiveK returns the anonymity floor the parameters guarantee: the
// minimum of Ks when set, K otherwise. Verification middleware audits
// assignments at this level.
func (p Params) EffectiveK() int {
	if len(p.Ks) == 0 {
		return p.K
	}
	min := p.Ks[0]
	for _, k := range p.Ks[1:] {
		if k < min {
			min = k
		}
	}
	return min
}

// Validate checks the parameters independently of any engine.
func (p Params) Validate() error {
	if len(p.Ks) == 0 && p.K < 1 {
		return fmt.Errorf("engine: k must be >= 1, got %d", p.K)
	}
	for i, k := range p.Ks {
		if k < 1 {
			return fmt.Errorf("engine: ks[%d] = %d (must be >= 1)", i, k)
		}
	}
	return nil
}

// Opt returns the named engine option, or def when absent.
func (p Params) Opt(name, def string) string {
	if v, ok := p.Opts[name]; ok {
		return v
	}
	return def
}

// Engine computes a cloaking policy for one location snapshot. An engine
// must be deterministic in (db, bounds, p): the paper's attacker model
// assumes the policy is a function of the snapshot alone ("the design is
// not secret"), and the caching layer relies on it.
type Engine interface {
	// Name returns the engine's stable registry name.
	Name() string
	// Anonymize computes the per-user cloak assignment for the snapshot
	// over the square map region bounds.
	Anonymize(ctx context.Context, db *location.DB, bounds geo.Rect, p Params) (*lbs.Assignment, error)
}

// Func is an Engine built from a function; New gives it a name.
type Func func(ctx context.Context, db *location.DB, bounds geo.Rect, p Params) (*lbs.Assignment, error)

// funcEngine is the canonical Engine implementation; middleware wraps
// engines by constructing new funcEngines around them.
type funcEngine struct {
	name string
	fn   Func
}

// New returns an Engine with the given name backed by fn.
func New(name string, fn Func) Engine {
	return &funcEngine{name: name, fn: fn}
}

func (e *funcEngine) Name() string { return e.name }

func (e *funcEngine) Anonymize(ctx context.Context, db *location.DB, bounds geo.Rect, p Params) (*lbs.Assignment, error) {
	return e.fn(ctx, db, bounds, p)
}

// ErrUnknownEngine is returned by registry lookups for unregistered names.
var ErrUnknownEngine = errors.New("engine: unknown engine")
