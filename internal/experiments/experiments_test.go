package experiments

import (
	"testing"

	"policyanon/internal/workload"
)

// smallDataset keeps experiment tests fast: ~10k users on a 16 km map.
func smallDataset() Dataset {
	return NewDataset(workload.Config{
		MapSide: 1 << 14, Intersections: 2000, UsersPerIntersection: 5, SpreadSigma: 120,
	}, 7)
}

func TestFig2(t *testing.T) {
	d := smallDataset()
	rows := Fig2(d, []int{8, 16})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SkewRatio <= 1 {
			t.Errorf("grid %d: synthetic data should be skewed, got %.2f", r.Cells, r.SkewRatio)
		}
		if float64(r.MaxUsers) < r.MeanUsers {
			t.Errorf("grid %d: max < mean", r.Cells)
		}
	}
}

func TestFig3(t *testing.T) {
	d := smallDataset()
	const k = 25
	rows, err := Fig3(d, []int{2000, 6000, 10000}, k)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, r := range rows {
		if r.MaxLeafCount >= k {
			t.Errorf("|D|=%d: leaf with %d >= k users", r.N, r.MaxLeafCount)
		}
		if r.Nodes < prev {
			t.Errorf("|D|=%d: node count decreased (%d -> %d)", r.N, prev, r.Nodes)
		}
		prev = r.Nodes
		if r.MaxHeight > 40 {
			t.Errorf("|D|=%d: implausible height %d", r.N, r.MaxHeight)
		}
	}
}

func TestFig4a(t *testing.T) {
	d := smallDataset()
	rows, err := Fig4a(d, []int{3000, 9000}, []int{1, 4}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Cost at a given size must not depend on the pool size by more than
	// the border effect; and multi-server cost >= single-server cost.
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i].N != rows[i+1].N {
			t.Fatal("row pairing broken")
		}
		if rows[i+1].Cost < rows[i].Cost {
			t.Errorf("|D|=%d: 4 servers cost %d below 1 server %d", rows[i].N, rows[i+1].Cost, rows[i].Cost)
		}
	}
}

func TestFig4b(t *testing.T) {
	d := smallDataset()
	rows, err := Fig4b(d, 8000, []int{5, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	// Larger k can only increase the optimal cost (coarser grouping).
	for i := 1; i < len(rows); i++ {
		if rows[i].Cost < rows[i-1].Cost {
			t.Errorf("cost decreased from k=%d (%d) to k=%d (%d)",
				rows[i-1].K, rows[i-1].Cost, rows[i].K, rows[i].Cost)
		}
	}
}

func TestFig5a(t *testing.T) {
	d := smallDataset()
	const k = 20
	rows, err := Fig5a(d, []int{4000, 10000}, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Casper refines PUQ, so its average area cannot exceed PUQ's.
		if r.Casper > r.PUQ {
			t.Errorf("|D|=%d: Casper %f > PUQ %f", r.N, r.Casper, r.PUQ)
		}
		if r.PUB > r.PUQ {
			t.Errorf("|D|=%d: PUB %f > PUQ %f", r.N, r.PUB, r.PUQ)
		}
		// The paper's headline claim: policy-aware cost at most ~1.7x
		// Casper; allow 2x slack for the synthetic data.
		if r.RatioToCasper > 2.0 {
			t.Errorf("|D|=%d: policy-aware/Casper ratio %.2f implausibly high", r.N, r.RatioToCasper)
		}
		if r.PolicyAware <= 0 {
			t.Errorf("|D|=%d: nonpositive policy-aware area", r.N)
		}
	}
}

func TestFig5b(t *testing.T) {
	d := smallDataset()
	rows, err := Fig5b(d, 8000, 20, []float64{0.001, 0.05}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].RowsRecomputed > rows[1].RowsRecomputed {
		t.Errorf("more movement should touch at least as many rows: %d vs %d",
			rows[0].RowsRecomputed, rows[1].RowsRecomputed)
	}
}

func TestParallelUtility(t *testing.T) {
	d := smallDataset()
	rows, err := ParallelUtility(d, 10000, 20, []int{1, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].DivergencePct != 0 {
		t.Errorf("single jurisdiction should match the optimum, divergence %.3f%%", rows[0].DivergencePct)
	}
	for _, r := range rows {
		if r.DivergencePct < 0 {
			t.Errorf("negative divergence %.3f%% at %d jurisdictions", r.DivergencePct, r.Jurisdictions)
		}
		// Section VI-D: divergence stays under 1% even under stress.
		if r.DivergencePct > 1.0 {
			t.Errorf("divergence %.3f%% exceeds the paper's 1%% envelope at %d jurisdictions",
				r.DivergencePct, r.Jurisdictions)
		}
	}
}

func TestAnswerSize(t *testing.T) {
	d := smallDataset()
	rows, err := AnswerSize(d, 6000, 20, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := make(map[string]UtilityRow)
	for _, r := range rows {
		if r.AvgAnswerSize < 1 {
			t.Errorf("%s: answer size %.2f below 1", r.Policy, r.AvgAnswerSize)
		}
		byName[r.Policy] = r
	}
	// Answer size should broadly track cloak area: PUQ (largest cloaks)
	// must not return smaller answers than Casper (smallest cloaks).
	if byName["PUQ"].AvgAnswerSize < byName["Casper"].AvgAnswerSize {
		t.Errorf("PUQ answers (%.2f) smaller than Casper answers (%.2f)",
			byName["PUQ"].AvgAnswerSize, byName["Casper"].AvgAnswerSize)
	}
}

func TestHilbertExperiment(t *testing.T) {
	d := smallDataset()
	rows, err := Hilbert(d, []int{3000}, 15)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.OptimalMinAnon < 15 || r.HilbertMinAnon < 15 {
		t.Fatalf("policy-aware-safe schemes below k: %+v", r)
	}
	if r.FindMBCAwareAnon >= 15 {
		t.Fatalf("FindMBC unexpectedly policy-aware safe: %+v", r)
	}
	if r.OptimalAvgArea <= 0 || r.HilbertAvgArea <= 0 || r.FindMBCAvgArea <= 0 {
		t.Fatalf("degenerate areas: %+v", r)
	}
}

func TestTrajectoryErosionExperiment(t *testing.T) {
	d := smallDataset()
	rows, err := TrajectoryErosion(d, 4000, 15, 5, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	prev := rows[0].Composed
	for i, r := range rows {
		if r.PerSnapshot < 15 {
			t.Fatalf("snapshot %d per-snapshot anonymity %d below k", i, r.PerSnapshot)
		}
		if r.Composed > r.PerSnapshot {
			t.Fatalf("snapshot %d composed %d exceeds per-snapshot %d", i, r.Composed, r.PerSnapshot)
		}
		if r.Composed > prev {
			t.Fatalf("snapshot %d composed anonymity grew: %d -> %d", i, prev, r.Composed)
		}
		prev = r.Composed
	}
	if rows[len(rows)-1].Composed >= rows[0].Composed {
		t.Fatal("trajectory attack failed to erode anonymity")
	}
}

func TestSampleClamps(t *testing.T) {
	d := smallDataset()
	db, err := d.Sample(d.Master.Len() * 2)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != d.Master.Len() {
		t.Fatalf("oversized sample should return the master set")
	}
	small, err := d.Sample(100)
	if err != nil || small.Len() != 100 {
		t.Fatalf("sample(100): %d %v", small.Len(), err)
	}
}

func TestAdaptiveExperiment(t *testing.T) {
	d := smallDataset()
	rows, err := Adaptive(d, []int{3000, 6000}, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CostRatio > 1.0000001 {
			t.Fatalf("|D|=%d: adaptive ratio %.4f exceeds 1", r.N, r.CostRatio)
		}
		if r.AdaptiveAvg <= 0 || r.StaticAvgArea <= 0 {
			t.Fatalf("degenerate areas: %+v", r)
		}
	}
}
