package experiments

import (
	"errors"
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

// TestLoadBulkDPBenchGates exercises the machine-aware performance gates:
// the allocation budget holds everywhere, the ≥2× @ 4 workers speedup
// gate applies only to documents recorded on ≥4-CPU boxes, 2–3 CPU boxes
// get the relaxed floor, and single-core boxes skip with a note.
func TestLoadBulkDPBenchGates(t *testing.T) {
	doc := func(gmp, ncpu int, sweep string) string {
		return `{"dataset":"small","users":100,"k":5,"treeKind":"binary","nodes":50,
			"gomaxprocs":` + itoa(gmp) + `,"numCPU":` + itoa(ncpu) + `,"cpuModel":"x","goVersion":"go1.23",
			"computeRowAllocsPerOp":0,"sweep":[` + sweep + `]}`
	}
	base := `{"workers":1,"nsPerOp":100,"nodesPerSec":5,"allocsPerOp":0,"speedup":1}`
	fast4 := base + `,{"workers":4,"nsPerOp":40,"nodesPerSec":12,"allocsPerOp":0,"speedup":2.5}`
	slow4 := base + `,{"workers":4,"nsPerOp":90,"nodesPerSec":6,"allocsPerOp":0,"speedup":1.1}`
	alloc4 := base + `,{"workers":4,"nsPerOp":40,"nodesPerSec":12,"allocsPerOp":46,"speedup":2.5}`

	if _, err := LoadBulkDPBench(strings.NewReader(doc(8, 8, fast4))); err != nil {
		t.Errorf("multi-core 2.5x rejected: %v", err)
	}
	// Speedup failures are ErrSpeedupGate (shape-only callers let them
	// pass); the deterministic alloc gate is not.
	if _, err := LoadBulkDPBench(strings.NewReader(doc(8, 8, slow4))); !errors.Is(err, ErrSpeedupGate) {
		t.Errorf("multi-core 1.1x @ 4 workers: %v, want speedup-gate failure", err)
	}
	if _, err := LoadBulkDPBench(strings.NewReader(doc(8, 8, alloc4))); err == nil || errors.Is(err, ErrSpeedupGate) {
		t.Errorf("46 allocs/op: %v, want zero-alloc-gate failure", err)
	}
	if _, err := LoadBulkDPBench(strings.NewReader(doc(8, 8, base))); !errors.Is(err, ErrSpeedupGate) {
		t.Errorf("multi-core doc without a workers=4 row: %v, want speedup-gate failure", err)
	}
	// Relaxed floor on a 2-core box: 1.4x passes, 1.1x fails.
	relaxedOK := base + `,{"workers":2,"nsPerOp":71,"nodesPerSec":7,"allocsPerOp":0,"speedup":1.4}`
	if _, err := LoadBulkDPBench(strings.NewReader(doc(2, 2, relaxedOK))); err != nil {
		t.Errorf("2-core 1.4x rejected: %v", err)
	}
	if _, err := LoadBulkDPBench(strings.NewReader(doc(2, 2, slow4))); !errors.Is(err, ErrSpeedupGate) {
		t.Errorf("2-core 1.1x: %v, want relaxed-gate failure", err)
	}
	// Single-core recording box: no speedup is measurable — the gate
	// skips regardless of the recorded ratios, and the note says so.
	b, err := LoadBulkDPBench(strings.NewReader(doc(1, 1, slow4)))
	if err != nil {
		t.Fatalf("single-core doc rejected: %v", err)
	}
	if note := b.SpeedupGateNote(); !strings.Contains(note, "skipped") || !strings.Contains(note, "numCPU=1") {
		t.Errorf("single-core note = %q, want skip explanation", note)
	}
	if b, err := LoadBulkDPBench(strings.NewReader(doc(8, 8, fast4))); err != nil || b.SpeedupGateNote() != "" {
		t.Errorf("multi-core note = %q (err %v), want empty", b.SpeedupGateNote(), err)
	}
	// The alloc gates hold even where the speedup gate skips.
	if _, err := LoadBulkDPBench(strings.NewReader(doc(1, 1, alloc4))); err == nil {
		t.Error("single-core 46 allocs/op accepted, want zero-alloc-gate failure")
	}
	rowAllocs := `{"dataset":"small","users":100,"k":5,"treeKind":"binary","nodes":50,
		"gomaxprocs":1,"numCPU":1,"cpuModel":"x","goVersion":"go1.23",
		"computeRowAllocsPerOp":3,"sweep":[` + base + `]}`
	if _, err := LoadBulkDPBench(strings.NewReader(rowAllocs)); err == nil {
		t.Error("computeRowAllocsPerOp=3 accepted, want zero-alloc-gate failure")
	}
}
