// Benchmarks for the systems beyond the paper's evaluation: the attacker
// tooling, the user-specified-k extension, the road-network workload, the
// ecosystem simulation, and checkpointing.
package policyanon

import (
	"bytes"
	"math/rand"
	"testing"

	"policyanon/internal/attacker"
	"policyanon/internal/checkpoint"
	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/roadnet"
	"policyanon/internal/sim"
	"policyanon/internal/tree"
)

// BenchmarkAuditPolicyAware measures the full-policy anonymity audit the
// CSP would run before installing a policy (grid-accelerated).
func BenchmarkAuditPolicyAware(b *testing.B) {
	db := benchSample(b, 50000)
	anon, err := core.NewAnonymizer(db, benchData().Bounds, core.AnonymizerOptions{K: benchK})
	if err != nil {
		b.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, aw := range []attacker.Awareness{attacker.PolicyAware, attacker.PolicyUnaware} {
			if breaches, _ := attacker.Audit(pol, benchK, aw); len(breaches) != 0 {
				b.Fatal("optimal policy breached")
			}
		}
	}
}

// BenchmarkFrequencyAttack measures the Section VII counting attack over a
// snapshot-sized provider log.
func BenchmarkFrequencyAttack(b *testing.B) {
	db := benchSample(b, 25000)
	anon, err := core.NewAnonymizer(db, benchData().Bounds, core.AnonymizerOptions{K: benchK})
	if err != nil {
		b.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	log := make([]lbs.AnonymizedRequest, 2000)
	params := []lbs.Param{{Name: "cat", Value: "gas"}}
	for i := range log {
		log[i] = lbs.AnonymizedRequest{
			RID: uint64(i), Cloak: pol.CloakAt(rng.Intn(db.Len())), Params: params,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attacker.FrequencyAttack(pol, log)
	}
}

// BenchmarkMultiK measures the user-specified-k extension against flat k.
func BenchmarkMultiK(b *testing.B) {
	db := benchSample(b, 25000)
	ks := make([]int, db.Len())
	for i := range ks {
		ks[i] = []int{20, 50, 100}[i%3]
	}
	b.Run("per-user-k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MultiKPolicy(db, benchData().Bounds, ks, core.AnonymizerOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flat-kmax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			anon, err := core.NewAnonymizer(db, benchData().Bounds, core.AnonymizerOptions{K: 100})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := anon.Matrix().Extract(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRoadnetStep measures one snapshot interval of network movement
// for a metropolitan population.
func BenchmarkRoadnetStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geo.Point, 20000)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Int31n(1 << 15), Y: rng.Int31n(1 << 15)}
	}
	net, err := roadnet.BuildNetwork(pts, geo.NewRect(0, 0, 1<<15, 1<<15), 3)
	if err != nil {
		b.Fatal(err)
	}
	agents, err := roadnet.NewAgents(net, 50000, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agents.Step(10)
	}
}

// BenchmarkSimSnapshot measures one full ecosystem snapshot: movement,
// incremental maintenance, request serving, and attack replay.
func BenchmarkSimSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := sim.Run(sim.Config{Users: 5000, K: 25, Snapshots: 2, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if rep.BreachedSnapshots != 0 {
			b.Fatal("simulation breached")
		}
	}
}

// BenchmarkCheckpoint measures policy state save/load round trips.
func BenchmarkCheckpoint(b *testing.B) {
	db := benchSample(b, 25000)
	anon, err := core.NewAnonymizer(db, benchData().Bounds, core.AnonymizerOptions{K: benchK})
	if err != nil {
		b.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := checkpoint.Save(&buf, &checkpoint.State{K: benchK, Bounds: benchData().Bounds, Policy: pol}); err != nil {
				b.Fatal(err)
			}
			size = buf.Len()
		}
		b.ReportMetric(float64(size), "bytes")
	})
	var blob bytes.Buffer
	if err := checkpoint.Save(&blob, &checkpoint.State{K: benchK, Bounds: benchData().Bounds, Policy: pol}); err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := checkpoint.Load(bytes.NewReader(blob.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAdaptiveOrientation compares the static vertical binary
// tree with the adaptive-orientation DP (Section V's sketched variant):
// roughly twice the combine work for a cost that is never worse. The cost
// improvement is reported as a custom metric.
func BenchmarkAblationAdaptiveOrientation(b *testing.B) {
	db := benchSample(b, 25000)
	var staticCost, adaptiveCost int64
	b.Run("static-binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			anon, err := core.NewAnonymizer(db, benchData().Bounds, core.AnonymizerOptions{K: benchK})
			if err != nil {
				b.Fatal(err)
			}
			c, err := anon.OptimalCost()
			if err != nil {
				b.Fatal(err)
			}
			staticCost = c
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t, err := tree.Build(db.Points(), benchData().Bounds, tree.Options{
				Kind: tree.Quad, MinCountToSplit: benchK,
			})
			if err != nil {
				b.Fatal(err)
			}
			m, err := core.NewAdaptiveMatrix(t, benchK, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			c, err := m.OptimalCost()
			if err != nil {
				b.Fatal(err)
			}
			adaptiveCost = c
		}
		if staticCost > 0 {
			b.ReportMetric(float64(adaptiveCost)/float64(staticCost), "adaptive/static-cost")
		}
	})
}
