package experiments

import (
	"strings"
	"testing"
	"time"

	"policyanon/internal/workload"
)

func TestWorkersSweepProducesValidDoc(t *testing.T) {
	d := NewDataset(workload.Config{
		MapSide: 1 << 12, Intersections: 400, UsersPerIntersection: 5, SpreadSigma: 60,
	}, 5)
	bench, err := WorkersSweep(d, 2000, 20, []int{1, 2}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Sweep) != 2 {
		t.Fatalf("sweep has %d rows, want 2", len(bench.Sweep))
	}
	if bench.Sweep[0].Speedup != 1 {
		t.Errorf("workers=1 speedup = %v, want 1", bench.Sweep[0].Speedup)
	}
	if bench.GOMAXPROCS < 1 || bench.GoVersion == "" || bench.CPUModel == "" {
		t.Errorf("machine metadata incomplete: %+v", bench)
	}
	if bench.ComputeRowAllocs != 0 {
		t.Errorf("steady-state computeRow allocates %.1f/op, want 0", bench.ComputeRowAllocs)
	}
	if s := SpeedupSummary(bench); !strings.Contains(s, "GOMAXPROCS=") {
		t.Errorf("summary lacks machine context: %q", s)
	}
}

func TestLoadBulkDPBenchRejectsMalformed(t *testing.T) {
	valid := `{"dataset":"small","users":100,"k":5,"treeKind":"binary","nodes":50,
		"gomaxprocs":1,"numCPU":1,"cpuModel":"x","goVersion":"go1.23",
		"computeRowAllocsPerOp":0,
		"sweep":[{"workers":1,"nsPerOp":10,"nodesPerSec":5,"allocsPerOp":0,"speedup":1}]}`
	if _, err := LoadBulkDPBench(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	for name, doc := range map[string]string{
		"not-json":         `{`,
		"empty-sweep":      `{"users":100,"k":5,"nodes":50,"gomaxprocs":1,"goVersion":"go1.23","sweep":[]}`,
		"no-baseline":      `{"users":100,"k":5,"nodes":50,"gomaxprocs":1,"goVersion":"go1.23","sweep":[{"workers":2,"nsPerOp":10,"nodesPerSec":5}]}`,
		"zero-ns":          `{"users":100,"k":5,"nodes":50,"gomaxprocs":1,"goVersion":"go1.23","sweep":[{"workers":1,"nsPerOp":0,"nodesPerSec":5}]}`,
		"missing-machine":  `{"users":100,"k":5,"nodes":50,"sweep":[{"workers":1,"nsPerOp":10,"nodesPerSec":5}]}`,
		"unknown-field":    `{"users":100,"bogus":1,"k":5,"nodes":50,"gomaxprocs":1,"goVersion":"go1.23","sweep":[{"workers":1,"nsPerOp":10,"nodesPerSec":5}]}`,
		"invalid-metadata": `{"users":0,"k":5,"nodes":50,"gomaxprocs":1,"goVersion":"go1.23","sweep":[{"workers":1,"nsPerOp":10,"nodesPerSec":5}]}`,
	} {
		if _, err := LoadBulkDPBench(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadBulkDPBenchGates separates what LoadBulkDPBench rejects from
// what SpeedupGateNote only remarks on: the allocation budget is an error
// on any machine; a missed speedup floor (≥2× @ 4 workers with ≥4 CPUs,
// ≥1.3× best with 2–3 CPUs) loads fine and is named in the note, as is a
// single-core recording.
func TestLoadBulkDPBenchGates(t *testing.T) {
	doc := func(ncpu int, sweep string) string {
		return `{"dataset":"small","users":100,"k":5,"treeKind":"binary","nodes":50,
			"gomaxprocs":` + itoa(ncpu) + `,"numCPU":` + itoa(ncpu) + `,"cpuModel":"x","goVersion":"go1.23",
			"computeRowAllocsPerOp":0,"sweep":[` + sweep + `]}`
	}
	base := `{"workers":1,"nsPerOp":100,"nodesPerSec":5,"allocsPerOp":0,"speedup":1}`
	fast4 := base + `,{"workers":4,"nsPerOp":40,"nodesPerSec":12,"allocsPerOp":0,"speedup":2.5}`
	slow4 := base + `,{"workers":4,"nsPerOp":90,"nodesPerSec":6,"allocsPerOp":0,"speedup":1.1}`
	alloc4 := base + `,{"workers":4,"nsPerOp":40,"nodesPerSec":12,"allocsPerOp":46,"speedup":2.5}`
	relaxedOK := base + `,{"workers":2,"nsPerOp":71,"nodesPerSec":7,"allocsPerOp":0,"speedup":1.4}`

	for _, tc := range []struct {
		name     string
		ncpu     int
		sweep    string
		wantNote string // substring of SpeedupGateNote; "" = no note
	}{
		{"multi-core 2.5x", 8, fast4, ""},
		{"multi-core 1.1x at 4 workers", 8, slow4, "1.10x at 4 workers is below the 2.0x floor"},
		{"multi-core without a workers=4 row", 8, base, "no workers=4 row"},
		{"2-core 1.4x", 2, relaxedOK, "relaxed to ≥1.3x"},
		{"2-core 1.1x", 2, slow4, "1.10x is below the 1.3x floor for numCPU=2"},
		{"single-core", 1, slow4, "skipped: recorded on a single-core box, numCPU=1"},
	} {
		b, err := LoadBulkDPBench(strings.NewReader(doc(tc.ncpu, tc.sweep)))
		if err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
			continue
		}
		if note := b.SpeedupGateNote(); !strings.Contains(note, tc.wantNote) || (tc.wantNote == "") != (note == "") {
			t.Errorf("%s: note = %q, want %q", tc.name, note, tc.wantNote)
		}
	}

	// The alloc gates are errors wherever the document was recorded.
	for _, ncpu := range []int{1, 2, 8} {
		if _, err := LoadBulkDPBench(strings.NewReader(doc(ncpu, alloc4))); err == nil {
			t.Errorf("numCPU=%d: 46 allocs/op accepted, want zero-alloc-gate failure", ncpu)
		}
	}
	rowAllocs := strings.Replace(doc(1, base), `"computeRowAllocsPerOp":0`, `"computeRowAllocsPerOp":3`, 1)
	if _, err := LoadBulkDPBench(strings.NewReader(rowAllocs)); err == nil {
		t.Error("computeRowAllocsPerOp=3 accepted, want zero-alloc-gate failure")
	}
}
