package verify

import (
	"fmt"
	"runtime"
	"testing"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/workload"
)

var benchReport *Report

// generated returns a workload snapshot of the given size and the optimal
// policy's cloaks over it at k.
func generated(tb testing.TB, users, k int) (*location.DB, []geo.Rect) {
	tb.Helper()
	db := workload.Generate(workload.Config{Intersections: users / 10}, 42)
	anon, err := core.NewAnonymizer(db, workload.MapBounds(workload.DefaultMapSide), core.AnonymizerOptions{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		tb.Fatal(err)
	}
	return db, pol.Cloaks()
}

// nullMove derives a new paged version of a's policy by moving record i
// onto its own location.
func nullMove(tb testing.TB, a *lbs.Assignment, i int) *lbs.Assignment {
	tb.Helper()
	at := a.DB().At(i).Loc
	next, err := a.ApplyDelta([]lbs.Move{{Index: i, From: at, To: at}}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return next
}

// TestPolicyAllocs pins what one full verification allocates at the
// publish path's scale (BENCHMARK.json's moves_publish: 20k users, k=50)
// on a paged assignment, the form every motion publish verifies. A survey
// is memoized per assignment, so each run verifies a new version, derived
// off the count. The groups and the policy-unaware counts are split
// across GOMAXPROCS goroutines, so the budget grows with it; CI runs the
// test at GOMAXPROCS 1, 2 and 8. Measured on 2 vCPUs: 69 allocs and
// 0.55 MB at 1, 113 and 0.61 MB at 2, 340 and 0.78 MB at 8.
func TestPolicyAllocs(t *testing.T) {
	const users, k, runs = 20_000, 50, 5
	db, cloaks := generated(t, users, k)
	a, err := lbs.NewAssignment(db, cloaks)
	if err != nil {
		t.Fatal(err)
	}
	procs := uint64(runtime.GOMAXPROCS(0))
	maxAllocs, maxBytes := 80+45*(procs-1), 620_000+40_000*(procs-1)
	// The fewest over a few runs: goroutine start-up may or may not reuse
	// a parked goroutine, which moves the count by a handful.
	allocs, bytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		a = nullMove(t, a, i)
		runtime.ReadMemStats(&before)
		rep := Policy(a, k)
		runtime.ReadMemStats(&after)
		if !rep.OK() {
			t.Fatal(rep.Problems[0])
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("verify.Policy at GOMAXPROCS=%d: %d allocs, %d B; budget %d allocs, %d B",
			procs, allocs, bytes, maxAllocs, maxBytes)
	}
	t.Logf("verify.Policy at GOMAXPROCS=%d: %d allocs, %d B (budget %d, %d B)", procs, allocs, bytes, maxAllocs, maxBytes)
}

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
		db, cloaks := generated(b, users, k)
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
				a = nullMove(b, a, i%users)
				b.StartTimer()
				benchReport = Policy(a, k)
			}
			if !benchReport.OK() {
				b.Fatal(benchReport.Problems[0])
			}
		})
	}
}
