// Pipeline runs the full privacy-conscious LBS flow of Section II-B: user
// requests enter the trusted CSP, are anonymized under the optimal
// policy-aware policy, answered by an untrusted POI provider that only
// ever sees cloaks, cached per Section VII, and refined client-side.
// It then plays the attacker: with the provider's log, the location
// database, and full knowledge of the policy, every request still has at
// least k possible senders.
//
// The run is traced end to end: it finishes by printing the aggregated
// per-phase timing table and writing pipeline-trace.json, a Chrome
// trace_event file viewable in chrome://tracing or ui.perfetto.dev.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"policyanon"
)

func main() {
	const (
		k    = 10
		side = int32(4096)
	)
	rng := rand.New(rand.NewSource(7))

	// Every phase of the pipeline records spans into this tracer.
	tracer := policyanon.NewTracer()
	ctx := policyanon.WithTracer(context.Background(), tracer)

	// Snapshot: 400 users.
	db := policyanon.NewLocationDB()
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("user%03d", i)
		if err := db.Add(id, policyanon.Pt(rng.Int31n(side), rng.Int31n(side))); err != nil {
			log.Fatal(err)
		}
	}
	bounds := policyanon.Square(0, 0, side)

	// POI catalogue: 200 gas stations and restaurants.
	var pois []policyanon.POI
	for i := 0; i < 200; i++ {
		cat := "gas"
		if i%2 == 0 {
			cat = "rest"
		}
		pois = append(pois, policyanon.POI{
			ID:       fmt.Sprintf("poi%03d", i),
			Loc:      policyanon.Pt(rng.Int31n(side), rng.Int31n(side)),
			Category: cat,
		})
	}
	store, err := policyanon.NewPOIStore(pois, bounds, 0)
	if err != nil {
		log.Fatal(err)
	}
	provider := policyanon.NewPOIProvider(store)
	// The recording wrapper is the provider's log: what leaks.
	seen := policyanon.NewRecordingProvider(provider)

	// The CSP computes the optimal policy-aware policy and serves.
	anon, err := policyanon.NewAnonymizerContext(ctx, db, bounds, policyanon.Options{K: k})
	if err != nil {
		log.Fatal(err)
	}
	policy, err := anon.Policy()
	if err != nil {
		log.Fatal(err)
	}
	csp := policyanon.NewCSP(policy, seen)

	// 150 users ask for the nearest gas station.
	correct := 0
	for i := 0; i < 150; i++ {
		rec := db.At(rng.Intn(db.Len()))
		sr := policyanon.ServiceRequest{
			UserID: rec.UserID, Loc: rec.Loc,
			Params: []policyanon.Param{{Name: "cat", Value: "gas"}},
		}
		_, answer, err := csp.ServeContext(ctx, sr)
		if err != nil {
			log.Fatal(err)
		}
		got, ok := policyanon.FilterNearest(answer, rec.Loc)
		want, ok2 := store.NearestCategory(rec.Loc, "gas")
		if ok && ok2 && rec.Loc.DistSq(got.Loc) == rec.Loc.DistSq(want.Loc) {
			correct++
		}
	}
	hits, misses := csp.CacheStats()
	fmt.Printf("served 150 nearest-gas-station requests; %d/150 exact answers after client filtering\n", correct)
	fmt.Printf("provider round-trips: %d (cache suppressed %d duplicates)\n", misses, hits)
	fmt.Printf("provider billing by category: %v\n\n", provider.Billing())

	// --- The attack. The provider's log leaks; the location database is
	// subpoenaed; the policy is known. How anonymous are the senders?
	minCand := db.Len()
	leaked := seen.Log()
	for _, ar := range leaked {
		if n := len(policyanon.Candidates(policy, ar.Cloak, policyanon.PolicyAware)); n < minCand {
			minCand = n
		}
	}
	fmt.Printf("policy-aware attacker over %d logged requests: smallest candidate set = %d (k = %d)\n",
		len(leaked), minCand, k)
	if minCand < k {
		log.Fatal("BREACH: this should be impossible")
	}
	fmt.Println("sender k-anonymity holds against the policy-aware attacker")

	// --- Where did the time go? The tracer aggregated every phase.
	fmt.Println("\nper-phase timing:")
	if err := tracer.WritePhaseTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("pipeline-trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntrace written to pipeline-trace.json (open in chrome://tracing or ui.perfetto.dev)")
}
