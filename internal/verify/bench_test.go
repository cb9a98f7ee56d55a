package verify

import (
	"fmt"
	"testing"

	"policyanon/internal/core"
	"policyanon/internal/lbs"
	"policyanon/internal/workload"
)

var benchReport *Report

// BenchmarkPolicy times one full verification of a never-verified
// assignment (a survey is memoized per assignment, so every iteration
// gets a new one, built off the clock) at the publish-path scale of
// BENCHMARK.json's moves_publish (20k users, k=50) and at 100k, over both
// storage forms: flat (a from-scratch publish) and paged (a delta
// publish, which is what the motion pipeline verifies every batch).
//
//	go test ./internal/verify -run '^$' -bench Policy -benchtime 20x
func BenchmarkPolicy(b *testing.B) {
	const k = 50
	for _, users := range []int{20_000, 100_000} {
		db := workload.Generate(workload.Config{Intersections: users / 10}, 42)
		anon, err := core.NewAnonymizer(db, workload.MapBounds(workload.DefaultMapSide), core.AnonymizerOptions{K: k})
		if err != nil {
			b.Fatal(err)
		}
		pol, err := anon.Policy()
		if err != nil {
			b.Fatal(err)
		}
		cloaks := pol.Cloaks()
		b.Run(fmt.Sprintf("users=%d/flat", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a, err := lbs.NewAssignment(db, cloaks)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				benchReport = Policy(a, k)
			}
			if !benchReport.OK() {
				b.Fatal(benchReport.Problems[0])
			}
		})
		b.Run(fmt.Sprintf("users=%d/paged", users), func(b *testing.B) {
			a, err := lbs.NewAssignment(db, cloaks)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// A null move derives a new paged version of the same policy.
				at := a.DB().At(i % users).Loc
				a, err = a.ApplyDelta([]lbs.Move{{Index: i % users, From: at, To: at}}, []lbs.CloakChange(nil))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				benchReport = Policy(a, k)
			}
			if !benchReport.OK() {
				b.Fatal(benchReport.Problems[0])
			}
		})
	}
}
