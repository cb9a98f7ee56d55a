package lbs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"policyanon/internal/geo"
)

// blockingProvider counts Answer calls and holds each inside the call
// until the gate opens, so a test can pile concurrent requests onto one
// in-flight lookup deterministically.
type blockingProvider struct {
	gate  chan struct{}
	fail  bool
	mu    sync.Mutex
	calls int
}

func (p *blockingProvider) Answer(ar AnonymizedRequest) ([]POI, error) {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	<-p.gate
	if p.fail {
		return nil, errors.New("provider down")
	}
	return []POI{{ID: "poi", Loc: geo.Point{X: 1, Y: 1}, Category: "ital"}}, nil
}

func (p *blockingProvider) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// coalesceFixture wires the 5-user table-I policy to a blocking provider.
func coalesceFixture(t *testing.T) (*CSP, *blockingProvider) {
	t.Helper()
	db := tableI(t)
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(2, 0, 8, 8)
	pol, err := NewAssignment(db, []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	provider := &blockingProvider{gate: make(chan struct{})}
	return NewCSP(pol, provider), provider
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightCoalesces is the coalescing contract: N concurrent
// identical requests against one assignment version reach the provider
// exactly once, and every caller gets the shared answer. Run with -race.
func TestSingleflightCoalesces(t *testing.T) {
	csp, provider := coalesceFixture(t)
	const n = 16
	sr := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}, Params: []Param{{Name: "cat", Value: "ital"}}}

	var wg sync.WaitGroup
	errs := make([]error, n)
	answers := make([][]POI, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, answers[i], errs[i] = csp.Serve(sr)
		}(i)
	}
	// One goroutine is the leader, held inside Answer by the gate; the
	// other n-1 must pile onto its flight before we release it.
	waitFor(t, "n-1 coalesced waiters", func() bool {
		_, coalesced := csp.CoalesceStats()
		return coalesced == n-1
	})
	close(provider.gate)
	wg.Wait()

	if got := provider.callCount(); got != 1 {
		t.Fatalf("provider saw %d lookups for %d concurrent identical requests, want 1", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(answers[i]) != 1 || answers[i][0].ID != "poi" {
			t.Fatalf("caller %d got answer %+v, want the shared lookup's answer", i, answers[i])
		}
	}
	flights, coalesced := csp.CoalesceStats()
	if flights != 1 || coalesced != n-1 {
		t.Fatalf("coalesce stats flights=%d coalesced=%d, want 1 and %d", flights, coalesced, n-1)
	}
	// Follow-up requests are plain cache hits, not flights.
	if _, _, err := csp.Serve(sr); err != nil {
		t.Fatal(err)
	}
	if hits, _ := csp.CacheStats(); hits != 1 {
		t.Fatalf("follow-up request: hits=%d, want 1", hits)
	}
}

// TestSingleflightErrorNotCached: a failed lookup propagates the error to
// every coalesced caller and leaves no cache entry or flight behind — the
// next request retries the provider.
func TestSingleflightErrorNotCached(t *testing.T) {
	csp, provider := coalesceFixture(t)
	provider.fail = true
	sr := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}}

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = csp.Serve(sr)
		}(i)
	}
	waitFor(t, "n-1 coalesced waiters", func() bool {
		_, coalesced := csp.CoalesceStats()
		return coalesced == n-1
	})
	close(provider.gate)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: provider failure not propagated", i)
		}
	}
	// The retry reaches the provider again: errors start no cache epoch.
	provider.fail = false
	provider.gate = make(chan struct{})
	close(provider.gate)
	if _, _, err := csp.Serve(sr); err != nil {
		t.Fatal(err)
	}
	if got := provider.callCount(); got != 2 {
		t.Fatalf("provider saw %d lookups, want 2 (error + retry)", got)
	}
	if hits, misses := csp.CacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d after error+retry, want 0/1", hits, misses)
	}
}

// TestCacheShardIsolation: requests from different jurisdictions (west
// and east cloaks) land in different shards and proceed independently —
// an in-flight west lookup never blocks east traffic. Run with -race.
func TestCacheShardIsolation(t *testing.T) {
	csp, provider := coalesceFixture(t)
	west := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}}
	east := ServiceRequest{UserID: "Tom", Loc: geo.Point{X: 4, Y: 4}}

	wk, ek := keyOf(AnonymizedRequest{Cloak: geo.NewRect(0, 0, 2, 8)}), keyOf(AnonymizedRequest{Cloak: geo.NewRect(2, 0, 8, 8)})
	if shardOf(wk) == shardOf(ek) {
		t.Logf("west and east cloaks share shard %d; isolation still holds per-key", shardOf(wk))
	}

	// Hold a west lookup open; east requests must complete regardless.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := csp.Serve(west); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "west lookup in flight", func() bool {
		flights, _ := csp.CoalesceStats()
		return flights == 1
	})

	done := make(chan error, 1)
	go func() {
		// The east call will also block inside Answer on the shared gate,
		// so the isolation check is that it gets PAST the cache layer —
		// its own flight registers — while west's lookup is still open.
		_, _, err := csp.Serve(east)
		done <- err
	}()
	waitFor(t, "east flight registered concurrently", func() bool {
		flights, _ := csp.CoalesceStats()
		return flights == 2
	})
	close(provider.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := provider.callCount(); got != 2 {
		t.Fatalf("provider saw %d lookups, want 2 (one per jurisdiction)", got)
	}
	// Each jurisdiction's entry serves its own followers from cache.
	for _, sr := range []ServiceRequest{west, east} {
		if _, _, err := csp.Serve(sr); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := csp.CacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("cache stats hits=%d misses=%d, want 2/2", hits, misses)
	}
}

// TestCoalesceVersionScoped: a policy swap must not let new requests
// piggyback on a lookup started under the old assignment version, even
// for an identical cloak — the flight key carries the version.
func TestCoalesceVersionScoped(t *testing.T) {
	csp, provider := coalesceFixture(t)
	sr := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := csp.Serve(sr); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "old-version flight", func() bool {
		flights, _ := csp.CoalesceStats()
		return flights == 1
	})

	// Publish a fresh (identical-shape) policy: same cloaks, new version.
	db := tableI(t)
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(2, 0, 8, 8)
	pol2, err := NewAssignment(db, []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	csp.SetPolicy(pol2)

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := csp.Serve(sr); err != nil {
			t.Error(err)
		}
	}()
	// The new-version request starts its OWN flight (flights hits 2)
	// rather than coalescing onto the old one.
	waitFor(t, "second flight under the new version", func() bool {
		flights, coalesced := csp.CoalesceStats()
		return flights == 2 && coalesced == 0
	})
	close(provider.gate)
	wg.Wait()
	if got := provider.callCount(); got != 2 {
		t.Fatalf("provider saw %d lookups, want 2 (one per version)", got)
	}
}

// TestConcurrentMixedTraffic hammers the sharded cache from many
// goroutines across both jurisdictions and several parameter sets; the
// provider must see each distinct (cloak, params) exactly once and the
// counters must balance. Run with -race.
func TestConcurrentMixedTraffic(t *testing.T) {
	db := tableI(t)
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(2, 0, 8, 8)
	pol, err := NewAssignment(db, []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	provider := &blockingProvider{gate: make(chan struct{})}
	close(provider.gate) // no blocking: pure throughput interleaving
	csp := NewCSP(pol, provider)

	users := []ServiceRequest{
		{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}},
		{UserID: "Bob", Loc: geo.Point{X: 1, Y: 2}},
		{UserID: "Tom", Loc: geo.Point{X: 4, Y: 4}},
		{UserID: "Sam", Loc: geo.Point{X: 3, Y: 1}},
	}
	const perUser = 50
	var wg sync.WaitGroup
	for _, u := range users {
		for p := 0; p < 3; p++ {
			sr := u
			sr.Params = []Param{{Name: "cat", Value: fmt.Sprintf("c%d", p)}}
			for i := 0; i < perUser; i++ {
				wg.Add(1)
				go func(sr ServiceRequest) {
					defer wg.Done()
					if _, _, err := csp.Serve(sr); err != nil {
						t.Error(err)
					}
				}(sr)
			}
		}
	}
	wg.Wait()

	// 2 cloaks × 3 parameter sets = 6 distinct lookups at most.
	if got := provider.callCount(); got != 6 {
		t.Fatalf("provider saw %d lookups, want 6", got)
	}
	total := int64(len(users) * 3 * perUser)
	hits, misses := csp.CacheStats()
	flights, coalesced := csp.CoalesceStats()
	if misses != 6 || flights != 6 {
		t.Fatalf("misses=%d flights=%d, want 6/6", misses, flights)
	}
	if hits+misses+coalesced != total {
		t.Fatalf("hits(%d)+misses(%d)+coalesced(%d) != %d requests", hits, misses, coalesced, total)
	}
}

// TestConcurrentFirstHitsRenderTheSame: goroutines hitting one entry
// before it has a rendering may each render it; every one of them, and
// every hit after, gets the same bytes. Run with -race.
func TestConcurrentFirstHitsRenderTheSame(t *testing.T) {
	csp, _ := echoFixture(t)
	alice := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}, Params: []Param{{Name: "cat", Value: "gas"}}}
	if _, _, err := csp.Serve(alice); err != nil { // the miss that fills the entry
		t.Fatal(err)
	}
	render := func(answer []POI) []byte { return []byte("rendered " + answer[0].ID) }
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, _, rendered, err := csp.ServeRendered(context.Background(), alice, render)
				if err != nil || string(rendered) != "rendered <cat|gas>" {
					t.Errorf("rendered %q, err %v", rendered, err)
				}
			}
		}()
	}
	wg.Wait()
}
