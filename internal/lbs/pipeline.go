package lbs

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"policyanon/internal/geo"
	"policyanon/internal/obs"
)

// Provider is the untrusted LBS provider's query interface: it sees only
// anonymized requests.
type Provider interface {
	// Answer returns the candidate POIs for an anonymized request.
	Answer(AnonymizedRequest) ([]POI, error)
}

// POIProvider serves anonymized nearest-neighbour and range requests from
// a POIStore and keeps the per-category billing counts of Section VII. It
// retains nothing per request, and its lock covers only the billing bump,
// never the candidate scan, so concurrent requests scan in parallel. What
// the provider sees — the log a subpoena or hack would expose to the
// attacker of Section III — is recorded by wrapping it in a
// RecordingProvider.
type POIProvider struct {
	store   *POIStore
	mu      sync.Mutex
	billing map[string]int64 // category -> answers served (the billing model of Section VII)
}

// NewPOIProvider wraps a store.
func NewPOIProvider(store *POIStore) *POIProvider {
	return &POIProvider{store: store, billing: make(map[string]int64)}
}

// Answer serves an anonymized request. The request's "cat" parameter
// selects the POI category (empty matches all); a "range" parameter
// (meters, finite and non-negative) switches from nearest-neighbour to a
// range query.
func (p *POIProvider) Answer(ar AnonymizedRequest) ([]POI, error) {
	category, rangeMeters := "", ""
	for _, prm := range ar.Params {
		switch prm.Name {
		case "cat":
			category = prm.Value
		case "range":
			rangeMeters = prm.Value
		}
	}
	var cands []POI
	if rangeMeters != "" {
		radius, err := strconv.ParseFloat(rangeMeters, 64)
		if err != nil || math.IsNaN(radius) || math.IsInf(radius, 0) || radius < 0 {
			return nil, fmt.Errorf("lbs: bad range parameter %q", rangeMeters)
		}
		cands = p.store.CandidateInRange(ar.Cloak, radius, category)
	} else {
		cands = p.store.CandidateNearest(ar.Cloak, category)
	}
	p.mu.Lock()
	p.billing[category] += int64(len(cands))
	p.mu.Unlock()
	return cands, nil
}

// Billing returns the per-category answer counts used to charge
// advertisers.
func (p *POIProvider) Billing() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.billing))
	for k, v := range p.billing {
		out[k] = v
	}
	return out
}

// RecordingProvider wraps any Provider and logs every anonymized request
// it is asked — exactly what a subpoena or hack of the provider would
// expose to the attacker of Section III. The simulator, the examples and
// the tests wrap their provider to replay the attacks over the log; a
// long-running server does not (the log grows without bound, and the
// server's own view of what leaked is the audit report and the ledger).
type RecordingProvider struct {
	next Provider
	mu   sync.Mutex
	log  []AnonymizedRequest
}

// NewRecordingProvider wraps next.
func NewRecordingProvider(next Provider) *RecordingProvider {
	return &RecordingProvider{next: next}
}

// Answer logs the request, then delegates. The append happens before the
// lookup, so the log is complete (failed lookups included) and in arrival
// order.
func (r *RecordingProvider) Answer(ar AnonymizedRequest) ([]POI, error) {
	r.mu.Lock()
	r.log = append(r.log, ar)
	r.mu.Unlock()
	return r.next.Answer(ar)
}

// Log returns a copy of every anonymized request the provider has seen.
func (r *RecordingProvider) Log() []AnonymizedRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]AnonymizedRequest(nil), r.log...)
}

// CSP is the trusted anonymizing front end of the privacy-conscious LBS
// model (Section II-B): it holds the policy for the current snapshot,
// anonymizes user requests, forwards them to the provider, and caches
// answers by (cloak, parameters).
//
// The cache is the Section VII defence against frequency-counting attacks
// (the l-diversity / t-closeness analogue): within a cache epoch the
// provider sees a (cloak, params) key at most once while the key stays
// resident, so it cannot count the requests behind it; FlushCache starts a
// new epoch and reports the suppressed request count so the CSP can settle
// billing in aggregate. The cache is bounded (cacheGenCap): a key is
// forgotten only after a full generation of other distinct keys has gone
// through its shard without a request for it, so the hot keys a frequency
// count is about stay cached while never-repeated parameters cannot
// exhaust memory.
//
// The serving hot path is built for concurrency: the policy and the
// request-ID counter are atomics (no lock), the answer cache is sharded
// by cloak hash (cloaks are jurisdiction-aligned spatial regions, so
// shards split the keyspace geographically and concurrent requests from
// different areas never contend), and concurrent misses for the same
// (assignment version, cloak, params) coalesce into ONE provider lookup —
// the singleflight — whose answer every coalesced caller shares, exactly
// as a cache hit would.
type CSP struct {
	policy   atomic.Pointer[Assignment]
	provider Provider
	nextRID  atomic.Uint64
	shards   [cacheShards]cspShard
}

// cacheShards is the shard count of the answer cache; a power of two so
// the hash folds with a shift. 16 shards keep contention negligible well
// past the worker counts the serving benchmarks sweep.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// cacheGenCap is the number of keys one shard holds per generation, so
// the cache keeps at most 2 x 16 x 1024 = 32k answers. Measured on the
// repo benchmark (200k users, 20k POIs, 2 CPUs, docs/PERFORMANCE.md 3d):
// serve_batch_miss at ~43k never-repeated keys/s holds server_rss_mb at
// 157 MB with this cap (issue 17's prototype measured 228 MB at 4096 per
// generation, outside the benchmark's 15 % bound, and 611 MB growing
// ~20 MB/s with no cap), and serve_batch_hit's 8192-key working set
// stays resident with a hit ratio of 1.0.
const cacheGenCap = 1024

// cspShard is one cache shard: its slice of the answer cache, the
// in-flight singleflight table, and its share of the counters (summed on
// read). The cache is two generations of at most cacheGenCap keys each:
// inserts go to cur; when cur is full it becomes prev and the old prev is
// dropped; a hit in prev is promoted to cur. Approximately LRU with no
// per-entry bookkeeping. The counters do not depend on residency.
type cspShard struct {
	mu        sync.Mutex
	cur, prev map[cacheKey]*cacheEntry
	flight    map[flightKey]*flight
	hits      int64
	misses    int64
	flights   int64 // singleflight leaders (provider lookups started)
	coalesced int64 // callers who piggybacked on another's lookup
}

// cacheEntry is one cached answer and, once a hit has asked for it, the
// answer as its caller put it on the wire (ServeRendered). The rendering
// is a function of the answer alone, so it needs no invalidation of its
// own: it is evicted, flushed and replaced with the entry.
type cacheEntry struct {
	answer   []POI
	rendered []byte // guarded by the shard's mu; nil until the entry's first rendered hit
}

// lookup returns the cached entry for key, promoting it from the previous
// generation, or nil. Callers hold sh.mu.
func (sh *cspShard) lookup(key cacheKey) *cacheEntry {
	if e, ok := sh.cur[key]; ok {
		return e
	}
	e, ok := sh.prev[key]
	if ok {
		sh.insert(key, e)
	}
	return e
}

// insert caches e under key, rotating the generations when the current
// one is full. Callers hold sh.mu.
func (sh *cspShard) insert(key cacheKey, e *cacheEntry) {
	if len(sh.cur) >= cacheGenCap {
		sh.cur, sh.prev = sh.prev, sh.cur
		clear(sh.cur)
	}
	sh.cur[key] = e
}

// cacheKey identifies an anonymized request up to its request id: the
// cloak by value and the parameter vector in an injective encoding.
type cacheKey struct {
	cloak  geo.Rect
	params string
}

// flightKey scopes coalescing to one published assignment version: after
// a policy swap, new requests must not piggyback on a lookup started
// under the old policy.
type flightKey struct {
	version uint64
	key     cacheKey
}

// flight is one in-progress provider lookup. The leader fills answer/err
// before closing done; waiters read after <-done (the close is the
// happens-before edge).
type flight struct {
	done   chan struct{}
	answer []POI
	err    error
}

// keyOf builds the cache key. Every name and value is length-prefixed, so
// distinct parameter vectors never share a key whatever bytes they hold.
// Joining with separators cannot promise that: {cat: "gas;range=100"} and
// {cat: "gas"}, {range: "100"} both join to "cat=gas;range=100;".
func keyOf(ar AnonymizedRequest) cacheKey {
	var buf [64]byte
	b := buf[:0]
	for _, p := range ar.Params {
		b = binary.AppendUvarint(b, uint64(len(p.Name)))
		b = append(b, p.Name...)
		b = binary.AppendUvarint(b, uint64(len(p.Value)))
		b = append(b, p.Value...)
	}
	return cacheKey{cloak: ar.Cloak, params: string(b)}
}

// shardOf picks the cache shard: FNV-1a over the cloak's four coordinates
// and the parameter bytes, folded to its TOP bits — cloaks are
// power-of-two aligned, so the low bits of their coordinates (and hence
// of a multiplicative hash of them) carry no information.
func shardOf(key cacheKey) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [...]int32{key.cloak.MinX, key.cloak.MinY, key.cloak.MaxX, key.cloak.MaxY} {
		h = (h ^ uint64(uint32(v))) * prime64
	}
	for i := 0; i < len(key.params); i++ {
		h = (h ^ uint64(key.params[i])) * prime64
	}
	return int(h >> (64 - cacheShardBits))
}

// NewCSP wires a policy to a provider.
func NewCSP(policy *Assignment, provider Provider) *CSP {
	c := &CSP{provider: provider}
	c.policy.Store(policy)
	for i := range c.shards {
		c.shards[i].cur = make(map[cacheKey]*cacheEntry)
		c.shards[i].prev = make(map[cacheKey]*cacheEntry)
		c.shards[i].flight = make(map[flightKey]*flight)
	}
	return c
}

// SetPolicy installs the policy for a new snapshot. The cache is kept: for
// stationary points of interest the paper recommends flushing only at
// infrequent intervals.
func (c *CSP) SetPolicy(policy *Assignment) {
	c.policy.Store(policy)
}

// Serve handles one user request end to end: validate, anonymize, answer
// from cache or provider, and return the candidate set together with the
// anonymized request that was (or would have been) forwarded.
func (c *CSP) Serve(sr ServiceRequest) (AnonymizedRequest, []POI, error) {
	return c.ServeContext(context.Background(), sr)
}

// ServeContext is Serve with tracing: when ctx carries an obs.Tracer the
// request is recorded as a "csp.serve" span annotated with the cache
// outcome ("hit", "miss", or "coalesced") and the candidate count, making
// cache effectiveness visible per request in traces and per phase in
// metrics.
func (c *CSP) ServeContext(ctx context.Context, sr ServiceRequest) (AnonymizedRequest, []POI, error) {
	ar, answer, _, err := c.ServeRendered(ctx, sr, nil)
	return ar, answer, err
}

// ServeRendered is ServeContext for a caller that puts the answer on a
// wire. On a cache hit it also returns the answer as render renders it:
// rendered once, on the entry's first hit, and kept with the entry from
// then on, so a repeat hit costs its caller a copy instead of a
// formatting pass. render must be a pure function of the answer, and the
// same function on every call to one CSP; the returned bytes are shared
// and must not be written to. On a miss or a coalesced lookup rendered is
// nil: an entry that is never asked for again never pays for, or holds, a
// rendering.
func (c *CSP) ServeRendered(ctx context.Context, sr ServiceRequest, render func([]POI) []byte) (AnonymizedRequest, []POI, []byte, error) {
	sp := obs.StartLeaf(ctx, "csp.serve")
	defer sp.End()
	policy := c.policy.Load()
	if policy == nil {
		return AnonymizedRequest{}, nil, nil, fmt.Errorf("lbs: no policy installed")
	}
	rid := c.nextRID.Add(1)
	ar, err := policy.Anonymize(rid, sr)
	if err != nil {
		return AnonymizedRequest{}, nil, nil, err
	}
	key := keyOf(ar)
	sh := &c.shards[shardOf(key)]
	fk := flightKey{version: policy.Version(), key: key}

	sh.mu.Lock()
	if e := sh.lookup(key); e != nil {
		sh.hits++
		rendered := e.rendered
		sh.mu.Unlock()
		if rendered == nil && render != nil {
			// Two first hits may both render; they render the same bytes.
			rendered = render(e.answer)
			sh.mu.Lock()
			e.rendered = rendered
			sh.mu.Unlock()
		}
		sp.SetAttr("cache", "hit")
		sp.SetInt("candidates", int64(len(e.answer)))
		return ar, e.answer, rendered, nil
	}
	if f, ok := sh.flight[fk]; ok {
		// Someone is already asking the provider for this exact cloak
		// and parameters under this policy version: wait for their
		// answer instead of duplicating the lookup.
		sh.coalesced++
		sh.mu.Unlock()
		<-f.done
		if f.err != nil {
			return ar, nil, nil, fmt.Errorf("lbs: provider: %w", f.err)
		}
		sp.SetAttr("cache", "coalesced")
		sp.SetInt("candidates", int64(len(f.answer)))
		return ar, f.answer, nil, nil
	}
	f := &flight{done: make(chan struct{})}
	sh.flight[fk] = f
	sh.flights++
	sh.mu.Unlock()

	// This request leads a cache-miss provider lookup: vote its trace
	// interesting (the tail sampler's "flight" retention reason) — flights
	// are exactly where serving latency escapes the in-memory fast path.
	obs.MarkCapture(ctx, "flight")
	answer, err := c.provider.Answer(ar)
	f.answer, f.err = answer, err
	sh.mu.Lock()
	delete(sh.flight, fk) // errors are not cached; a retry starts fresh
	if err == nil {
		sh.misses++
		sh.insert(key, &cacheEntry{answer: answer})
	}
	sh.mu.Unlock()
	close(f.done)
	if err != nil {
		return ar, nil, nil, fmt.Errorf("lbs: provider: %w", err)
	}
	sp.SetAttr("cache", "miss")
	sp.SetInt("candidates", int64(len(answer)))
	return ar, answer, nil, nil
}

// CSPStats are the cache and singleflight counters since the last flush.
// Flights is the number of provider lookups started by a coalescing
// leader, Coalesced the number of callers who shared another caller's
// in-flight lookup instead of issuing their own. None of them depends on
// which keys are still resident.
type CSPStats struct {
	Hits, Misses, Flights, Coalesced int64
}

// Stats sums the counters over the shards in one pass.
func (c *CSP) Stats() CSPStats {
	var st CSPStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Flights += sh.flights
		st.Coalesced += sh.coalesced
		sh.mu.Unlock()
	}
	return st
}

// CacheStats returns the cache hit and miss counts since the last flush.
func (c *CSP) CacheStats() (hits, misses int64) {
	st := c.Stats()
	return st.Hits, st.Misses
}

// CoalesceStats returns the singleflight counters since the last flush.
func (c *CSP) CoalesceStats() (flights, coalesced int64) {
	st := c.Stats()
	return st.Flights, st.Coalesced
}

// FlushCache starts a new cache epoch and returns the number of provider
// round-trips the cache suppressed during the ending epoch (hits plus
// coalesced requests — neither reached the provider).
func (c *CSP) FlushCache() (suppressed int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		suppressed += sh.hits + sh.coalesced
		sh.cur = make(map[cacheKey]*cacheEntry)
		sh.prev = make(map[cacheKey]*cacheEntry)
		sh.hits, sh.misses = 0, 0
		sh.flights, sh.coalesced = 0, 0
		sh.mu.Unlock()
	}
	return suppressed
}
