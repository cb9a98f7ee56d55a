package lbs

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"policyanon/internal/geo"
)

// echoProvider answers every request with one POI named after its
// parameter vector and records the vectors it was asked, so a test can
// tell both how often and with what the provider was reached.
type echoProvider struct {
	mu    sync.Mutex
	asked []string
}

func (p *echoProvider) Answer(ar AnonymizedRequest) ([]POI, error) {
	id := ""
	for _, prm := range ar.Params {
		id += "<" + prm.Name + "|" + prm.Value + ">"
	}
	p.mu.Lock()
	p.asked = append(p.asked, id)
	p.mu.Unlock()
	return []POI{{ID: id}}, nil
}

func (p *echoProvider) calls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.asked)
}

func echoFixture(t *testing.T) (*CSP, *echoProvider) {
	t.Helper()
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(2, 0, 8, 8)
	pol, err := NewAssignment(tableI(t), []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	provider := &echoProvider{}
	return NewCSP(pol, provider), provider
}

// TestCacheKeyInjective: parameter vectors that a separator-joined key
// could not tell apart ("cat=gas;range=100;" both) are different requests:
// two provider lookups, two answers, neither planted on the other.
func TestCacheKeyInjective(t *testing.T) {
	confusable := [][2][]Param{
		{{{Name: "cat", Value: "gas;range=100"}}, {{Name: "cat", Value: "gas"}, {Name: "range", Value: "100"}}},
		{{{Name: "cat=gas;range", Value: "100"}}, {{Name: "cat", Value: "gas"}, {Name: "range", Value: "100"}}},
		{{{Name: "a", Value: ""}, {Name: "", Value: "b"}}, {{Name: "a", Value: "\x00\x01b"}}},
		{{{Name: "", Value: ""}}, nil},
		{{{Name: "ab", Value: "c"}}, {{Name: "a", Value: "bc"}}},
	}
	for i, pair := range confusable {
		if keyOf(AnonymizedRequest{Params: pair[0]}) == keyOf(AnonymizedRequest{Params: pair[1]}) {
			t.Errorf("pair %d: %v and %v share a cache key", i, pair[0], pair[1])
		}
	}

	csp, provider := echoFixture(t)
	alice := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}}
	var answers [2][]POI
	for i, params := range confusable[0] {
		alice.Params = params
		var err error
		if _, answers[i], err = csp.Serve(alice); err != nil {
			t.Fatal(err)
		}
	}
	if provider.calls() != 2 {
		t.Fatalf("provider saw %d lookups for two distinct parameter vectors, want 2", provider.calls())
	}
	if answers[0][0].ID == answers[1][0].ID {
		t.Fatalf("both vectors were answered %q: one client's answer was planted on the other", answers[0][0].ID)
	}
}

// TestCacheShardSpread: policy cloaks are power-of-two aligned, so the
// shard hash must not hang on the coordinates' low bits.
func TestCacheShardSpread(t *testing.T) {
	var perShard [cacheShards]int
	const cell, n = 2048, 32
	for x := int32(0); x < n; x++ {
		for y := int32(0); y < n; y++ {
			key := keyOf(AnonymizedRequest{Cloak: geo.NewRect(x*cell, y*cell, (x+1)*cell, (y+1)*cell),
				Params: []Param{{Name: "cat", Value: "gas"}}})
			perShard[shardOf(key)]++
		}
	}
	for sh, got := range perShard {
		if mean := n * n / cacheShards; got < mean/2 || got > 2*mean {
			t.Fatalf("shard %d holds %d of %d aligned cloaks (mean %d): %v", sh, got, n*n, mean, perShard)
		}
	}
}

// TestCacheBound fills ONE shard with three generations' worth of distinct
// keys. The shard never holds more than two generations, a key asked again
// within a generation never reaches the provider twice, the counters
// balance and match what an unbounded cache would have counted, and a key
// a full two generations old has been forgotten.
func TestCacheBound(t *testing.T) {
	csp, provider := echoFixture(t)
	west := geo.NewRect(0, 0, 2, 8)
	request := func(serial int) ServiceRequest {
		return ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1},
			Params: []Param{{Name: "cat", Value: strconv.Itoa(serial)}}}
	}
	shard := shardOf(keyOf(AnonymizedRequest{Cloak: west, Params: request(0).Params}))
	var serials []int // distinct keys, all of one shard
	for s := 0; len(serials) < 3*cacheGenCap; s++ {
		if shardOf(keyOf(AnonymizedRequest{Cloak: west, Params: request(s).Params})) == shard {
			serials = append(serials, s)
		}
	}

	reference := make(map[int]bool) // the unbounded cache
	var requests, suppressed int64
	serve := func(serial int) {
		t.Helper()
		if _, _, err := csp.Serve(request(serial)); err != nil {
			t.Fatal(err)
		}
		requests++
		if reference[serial] {
			suppressed++
		}
		reference[serial] = true
	}
	for i, serial := range serials {
		serve(serial)
		if i%7 == 0 && i >= 5 {
			before := provider.calls()
			serve(serials[i-5]) // asked again well within one generation
			if provider.calls() != before {
				t.Fatalf("key %d, 5 keys old, reached the provider again", serials[i-5])
			}
		}
		sh := &csp.shards[shard]
		if resident := len(sh.cur) + len(sh.prev); len(sh.cur) > cacheGenCap || resident > 2*cacheGenCap {
			t.Fatalf("after %d keys the shard holds %d+%d entries, generation cap %d", i+1, len(sh.cur), len(sh.prev), cacheGenCap)
		}
	}
	if got := provider.calls(); got != len(serials) {
		t.Fatalf("provider saw %d lookups for %d distinct keys", got, len(serials))
	}
	st := csp.Stats()
	if st.Hits+st.Misses+st.Coalesced != requests || st.Misses != int64(len(serials)) || st.Flights != st.Misses {
		t.Fatalf("stats %+v do not balance over %d requests, %d distinct", st, requests, len(serials))
	}

	// The first key is two full generations old: forgotten, asked again.
	before := provider.calls()
	if _, _, err := csp.Serve(request(serials[0])); err != nil {
		t.Fatal(err)
	}
	if provider.calls() != before+1 {
		t.Fatal("a key two generations old was still resident")
	}
	if got := csp.FlushCache(); got != suppressed {
		t.Fatalf("FlushCache reported %d suppressed, an unbounded cache would have suppressed %d", got, suppressed)
	}
	if st := csp.Stats(); st != (CSPStats{}) {
		t.Fatalf("stats after flush = %+v", st)
	}
}

// TestCachePromotion: a hit in the previous generation moves the key to
// the current one, so a key that keeps being asked outlives any number of
// rotations.
func TestCachePromotion(t *testing.T) {
	var sh cspShard
	sh.cur, sh.prev = make(map[cacheKey]*cacheEntry), make(map[cacheKey]*cacheEntry)
	key := func(i int) cacheKey { return cacheKey{params: strconv.Itoa(i)} }
	hot := key(-1)
	sh.insert(hot, &cacheEntry{answer: []POI{{ID: "hot"}}})
	for i := 0; i < 5*cacheGenCap; i++ {
		sh.insert(key(i), &cacheEntry{})
		if i%(cacheGenCap/2) == 0 {
			if sh.lookup(hot) == nil {
				t.Fatalf("hot key evicted after %d inserts although asked every half generation", i+1)
			}
		}
	}
	if sh.lookup(key(0)) != nil {
		t.Fatal("a cold key survived four rotations")
	}
}

// TestCacheRenderedFollowsEntry: ServeRendered renders an answer on the
// entry's first hit — not when a miss fills it, which is where a
// never-repeated key would pay for bytes nobody reads — hands every later
// hit those same bytes, and lets them go with the entry: promotion keeps
// them, eviction and FlushCache drop them.
func TestCacheRenderedFollowsEntry(t *testing.T) {
	csp, _ := echoFixture(t)
	ctx := context.Background()
	renders := 0
	render := func(answer []POI) []byte {
		renders++
		return []byte("rendered " + answer[0].ID)
	}
	alice := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}, Params: []Param{{Name: "cat", Value: "gas"}}}
	const want = "rendered <cat|gas>"
	serve := func(when string, wantRendered bool, wantRenders int) []byte {
		t.Helper()
		_, answer, rendered, err := csp.ServeRendered(ctx, alice, render)
		if err != nil || len(answer) != 1 {
			t.Fatalf("%s: answer %v, err %v", when, answer, err)
		}
		if wantRendered != (rendered != nil) || (rendered != nil && string(rendered) != want) {
			t.Fatalf("%s: rendered %q, want one: %v", when, rendered, wantRendered)
		}
		if renders != wantRenders {
			t.Fatalf("%s: %d renderings so far, want %d", when, renders, wantRenders)
		}
		return rendered
	}
	// churn pushes n other keys through the cache, untraced and unrendered.
	serial := 0
	churn := func(n int) {
		t.Helper()
		other := alice
		for ; n > 0; n-- {
			serial++
			other.Params = []Param{{Name: "range", Value: strconv.Itoa(serial)}}
			if _, _, err := csp.Serve(other); err != nil {
				t.Fatal(err)
			}
		}
	}

	serve("miss", false, 0)
	first := serve("first hit", true, 1)
	if again := serve("repeat hit", true, 1); &again[0] != &first[0] {
		t.Fatal("a repeat hit returned a copy, not the entry's rendering")
	}
	if _, _, err := csp.ServeContext(ctx, alice); err != nil || renders != 1 {
		t.Fatalf("an unrendered hit: err %v, %d renderings", err, renders)
	}

	// Half a cache of other keys: the entry is still resident, in its
	// shard's current or previous generation, and keeps its rendering.
	const resident = 2 * cacheShards * cacheGenCap
	churn(resident / 2)
	serve("hit after half a cache of other keys", true, 1)
	// Two caches of them: evicted, and the rendering with it.
	churn(2 * resident)
	serve("miss after eviction", false, 1)
	serve("first hit after eviction", true, 2)

	csp.FlushCache()
	serve("miss after FlushCache", false, 2)
	serve("first hit after FlushCache", true, 3)
}
