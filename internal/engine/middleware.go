package engine

import (
	"context"
	"sync"
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
// Wrap(e, WithTracing(), WithMetrics(reg), WithCache()), so that cache
// hits are traced and metered but skip the engine itself.
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
// utility measures, recorded as an "engine.audit" span with breach
// attributes attached to the enclosing "engine.<name>" span.
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
			sp.End()
			return a, nil
		})
	}
}

// cacheKey identifies one memoizable Anonymize call: the snapshot (by
// identity and version — see location.DB.Version), the map region, and
// the canonical parameter encoding.
type cacheKey struct {
	db      *location.DB
	version uint64
	bounds  geo.Rect
	params  string
}

// cacheLimit bounds each shard's memo table; on overflow the shard is
// dropped wholesale (snapshot churn makes LRU bookkeeping not worth it).
const cacheLimit = 128

// cacheShards is the shard count of the WithCache memo table; a power of
// two so the key hash folds with a mask. Different map regions (the
// per-jurisdiction bounds of a parallel deployment) hash to different
// shards, so concurrent engine runs for different jurisdictions never
// contend on one lock.
const cacheShards = 8

// cacheShard is one slice of the memo table plus its in-flight
// computations: concurrent misses for the same key coalesce onto one
// engine run instead of computing the same policy cacheShards times.
type cacheShard struct {
	mu     sync.Mutex
	memo   map[cacheKey]*lbs.Assignment
	flight map[cacheKey]*engineFlight
}

// engineFlight is one in-progress Anonymize run. The leader fills a/err
// before closing done; waiters read after <-done.
type engineFlight struct {
	done chan struct{}
	a    *lbs.Assignment
	err  error
}

// shardOf hashes a cache key to its shard: FNV-1a over the snapshot
// version, the bounds (jurisdiction), and the parameter encoding.
func shardOf(key cacheKey) int {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	mix(key.version)
	mix(uint64(uint32(key.bounds.MinX)) | uint64(uint32(key.bounds.MinY))<<32)
	mix(uint64(uint32(key.bounds.MaxX)) | uint64(uint32(key.bounds.MaxY))<<32)
	for i := 0; i < len(key.params); i++ {
		h = (h ^ uint64(key.params[i])) * prime64
	}
	return int(h & (cacheShards - 1))
}

// WithCache memoizes Anonymize by snapshot version: repeated calls with
// the same *location.DB at the same Version, bounds, and Params return
// the previously computed *lbs.Assignment without re-running the engine.
// This is sound because engines are deterministic functions of the
// snapshot (the Definition 4 policy model) and location.DB bumps its
// version on every mutation. The cache is per wrapped instance; callers
// share one wrapped engine to share its memo table.
//
// The table is sharded by (version, bounds, params) hash — concurrent
// lookups for different jurisdictions take different locks — and misses
// for the SAME key coalesce: one caller runs the engine, the others wait
// for its result, so a thundering herd on a fresh snapshot computes the
// policy once. Engine errors propagate to every coalesced waiter and are
// never cached.
func WithCache() Middleware {
	return func(next Engine) Engine {
		var shards [cacheShards]cacheShard
		for i := range shards {
			shards[i].memo = make(map[cacheKey]*lbs.Assignment)
			shards[i].flight = make(map[cacheKey]*engineFlight)
		}
		return New(next.Name(), func(ctx context.Context, db *location.DB, bounds geo.Rect, p Params) (*lbs.Assignment, error) {
			key := cacheKey{db: db, version: db.Version(), bounds: bounds, params: p.Key()}
			sh := &shards[shardOf(key)]
			sh.mu.Lock()
			if a, ok := sh.memo[key]; ok {
				sh.mu.Unlock()
				return a, nil
			}
			if f, ok := sh.flight[key]; ok {
				sh.mu.Unlock()
				<-f.done
				return f.a, f.err
			}
			f := &engineFlight{done: make(chan struct{})}
			sh.flight[key] = f
			sh.mu.Unlock()

			a, err := next.Anonymize(ctx, db, bounds, p)
			f.a, f.err = a, err
			sh.mu.Lock()
			delete(sh.flight, key)
			if err == nil {
				if len(sh.memo) >= cacheLimit {
					sh.memo = make(map[cacheKey]*lbs.Assignment)
				}
				sh.memo[key] = a
			}
			sh.mu.Unlock()
			close(f.done)
			return a, err
		})
	}
}
