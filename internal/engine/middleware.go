package engine

import (
	"context"
	"time"

	"policyanon/internal/audit"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/obs"
)

// Middleware decorates an Engine with a cross-cutting concern. The
// wrapped engine keeps the inner engine's name, so registry identity and
// span/metric keys survive arbitrary stacking.
type Middleware func(Engine) Engine

// Wrap applies middlewares around e with mws[0] outermost: the call order
// of Wrap(e, A, B) is A -> B -> e. The conventional serving stack is
// Wrap(e, WithTracing(), WithMetrics(reg)), so that every call is traced
// and metered.
func Wrap(e Engine, mws ...Middleware) Engine {
	for i := len(mws) - 1; i >= 0; i-- {
		e = mws[i](e)
	}
	return e
}

// WithTracing records every Anonymize call as an "engine.<name>" span
// (the engine-layer extension of the span taxonomy in
// docs/OBSERVABILITY.md) carrying users, k, and — on success — the policy
// cost. Contexts without a tracer pay nothing, as everywhere in obs.
func WithTracing() Middleware {
	return func(next Engine) Engine {
		return New(next.Name(), func(ctx context.Context, db *location.DB, bounds geo.Rect, p Params) (*lbs.Assignment, error) {
			ctx, sp := obs.Start(ctx, "engine."+next.Name())
			if sp != nil {
				sp.SetInt("users", int64(db.Len()))
				sp.SetInt("k", int64(p.EffectiveK()))
			}
			a, err := next.Anonymize(ctx, db, bounds, p)
			if sp != nil {
				if err != nil {
					sp.SetAttr("error", err.Error())
				} else {
					sp.SetInt("cost", a.Cost())
				}
				sp.End()
			}
			return a, err
		})
	}
}

// WithMetrics records per-engine serving metrics into reg:
//
//	engine_calls:<name>    counter of Anonymize invocations
//	engine_errors:<name>   counter of failed invocations
//	engine_latency:<name>  wall-time histogram
//	engine_cost:<name>     policy-cost histogram (summed cloak area, m^2)
func WithMetrics(reg *metrics.Registry) Middleware {
	return func(next Engine) Engine {
		name := next.Name()
		return New(name, func(ctx context.Context, db *location.DB, bounds geo.Rect, p Params) (*lbs.Assignment, error) {
			reg.Counter("engine_calls:" + name).Inc()
			start := time.Now()
			a, err := next.Anonymize(ctx, db, bounds, p)
			reg.Histogram("engine_latency:" + name).Observe(time.Since(start))
			if err != nil {
				reg.Counter("engine_errors:" + name).Inc()
				return nil, err
			}
			reg.ValueHistogram("engine_cost:" + name).Observe(a.Cost())
			return a, nil
		})
	}
}

// WithAudit samples successful Anonymize results into the privacy
// observatory: ~rate of the calls (deterministic 1-in-N, first call
// always sampled) are audited in full via audit.Auditor.ObservePolicy —
// achieved anonymity under both attacker classes, breach counters, and
// utility measures, recorded as an "engine.audit" span (attribute
// cloak_table: the policy's cloak-table entries) with breach attributes
// attached to the enclosing "engine.<name>" span.
//
// It never withholds a policy: breaches are observed, counted, and
// logged, not enforced. Enforcement belongs to the publish paths, which
// run internal/verify.Policy before a policy is served.
func WithAudit(aud *audit.Auditor, rate float64) Middleware {
	return func(next Engine) Engine {
		name := next.Name()
		sampler := audit.NewSampler(rate)
		return New(name, func(ctx context.Context, db *location.DB, bounds geo.Rect, p Params) (*lbs.Assignment, error) {
			a, err := next.Anonymize(ctx, db, bounds, p)
			if err != nil || !sampler.Sample() {
				return a, err
			}
			_, sp := obs.Start(ctx, "engine.audit")
			// The audit observes on the pre-span context so breach
			// attributes land on the enclosing engine span, not on the
			// audit timing span.
			aud.ObservePolicy(ctx, name, a, p.EffectiveK())
			sp.SetInt("cloak_table", int64(a.TableLen()))
			sp.End()
			return a, nil
		})
	}
}
