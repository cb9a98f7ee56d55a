package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"policyanon/internal/core"
	"policyanon/internal/tree"
)

// This file implements the tracked Bulk_dp benchmark baseline: a worker
// sweep over the bottom-up dynamic program whose results are written as
// BENCH_bulkdp.json, the perf trajectory every future change is compared
// against. The sweep measures the DP main loop in isolation (tree build
// and extraction excluded) via Matrix.Recompute, so nodes/sec and ns/op
// track exactly the code the intra-tree worker pool parallelizes.

// BulkDPSweepRow is one worker count's measurement.
type BulkDPSweepRow struct {
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"nsPerOp"`     // one full bottom-up pass
	NodesPerSec float64 `json:"nodesPerSec"` // tree nodes combined per second
	AllocsPerOp float64 `json:"allocsPerOp"` // steady-state allocations per pass
	Speedup     float64 `json:"speedup"`     // vs the workers=1 row
}

// BulkDPBench is the BENCH_bulkdp.json document.
type BulkDPBench struct {
	Dataset  string `json:"dataset"` // lbsbench scale name
	Users    int    `json:"users"`
	K        int    `json:"k"`
	TreeKind string `json:"treeKind"`
	Nodes    int    `json:"nodes"`
	// Machine metadata, for cross-machine comparability of the tracked
	// baseline: speedups from a 1-core container and a 32-core box are
	// not comparable without it.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
	CPUModel   string `json:"cpuModel"`
	GoVersion  string `json:"goVersion"`
	// ComputeRowAllocs is the steady-state allocation count of a single
	// interior-node combine (the zero-alloc regression gate).
	ComputeRowAllocs float64          `json:"computeRowAllocsPerOp"`
	Sweep            []BulkDPSweepRow `json:"sweep"`
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// GOARCH on platforms without it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}

// WorkersSweep benchmarks Matrix.Recompute over the dataset at every
// worker count and returns the tracked-baseline document. minTime is the
// measurement budget per worker count (e.g. time.Second; CI smoke runs
// use less).
func WorkersSweep(d Dataset, users, k int, workerCounts []int, minTime time.Duration) (*BulkDPBench, error) {
	db, err := d.Sample(users)
	if err != nil {
		return nil, err
	}
	t, err := tree.BuildContext(d.ctx(), db.Points(), d.Bounds, tree.Options{
		Kind: tree.Binary, MinCountToSplit: k,
	})
	if err != nil {
		return nil, err
	}
	bench := &BulkDPBench{
		Users:      db.Len(),
		K:          k,
		TreeKind:   "binary",
		Nodes:      t.NumNodes(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
	var baseline float64
	for _, nw := range workerCounts {
		if nw < 1 {
			return nil, fmt.Errorf("experiments: worker count %d < 1", nw)
		}
		m, err := core.NewMatrix(t, k, core.Options{Workers: nw})
		if err != nil {
			return nil, err
		}
		nsPerOp := measure(m.Recompute, minTime)
		// Allocations of a warm full pass. The parallel path allocates a
		// bounded amount of pool bookkeeping per pass; the sequential path
		// is allocation-free modulo the PostOrder closure.
		allocs := allocsPerRun(3, m.Recompute)
		row := BulkDPSweepRow{
			Workers:     nw,
			NsPerOp:     nsPerOp,
			NodesPerSec: float64(t.NumNodes()) / (nsPerOp / 1e9),
			AllocsPerOp: allocs,
		}
		if nw == 1 {
			baseline = nsPerOp
		}
		if baseline > 0 {
			row.Speedup = baseline / nsPerOp
		}
		bench.Sweep = append(bench.Sweep, row)
	}
	// The zero-alloc gate: recomputing one warm interior row.
	if m, err := core.NewMatrix(t, k, core.Options{Workers: 1}); err == nil {
		bench.ComputeRowAllocs = m.RowAllocsPerRun()
	}
	return bench, nil
}

// allocsPerRun mirrors testing.AllocsPerRun without linking the testing
// package into lbsbench: warm once, then average mallocs over runs.
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// measure times fn until minTime has elapsed and returns ns per call.
func measure(fn func(), minTime time.Duration) float64 {
	fn() // warm caches, pools, and row storage
	var total time.Duration
	var calls int
	for total < minTime {
		start := time.Now()
		fn()
		total += time.Since(start)
		calls++
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// Bulkdp allocation gate enforced by LoadBulkDPBench, and the speedup
// floors SpeedupGateNote reports against. Allocations measure the code and
// hold on any machine; a speedup measures the recording machine too.
const (
	// bulkDPAllocBudget bounds steady-state allocs per warm pass at every
	// worker count (and per warm computeRow). The per-worker scratch
	// arenas make the true value 0; <1 tolerates measurement jitter.
	bulkDPAllocBudget = 1.0
	// bulkDPSpeedupFloor is the expected speedup at 4 workers on a box
	// with ≥4 CPUs.
	bulkDPSpeedupFloor = 2.0
	// bulkDPSpeedupFloorSmall is the floor for the best multi-worker row
	// on 2–3 CPU boxes (GitHub-hosted runners are often 2-core):
	// parallelism should at least pay for itself with visible headroom.
	bulkDPSpeedupFloorSmall = 1.3
)

// SpeedupGateNote says how the document's multi-worker speedup compares
// with the floor for its recording machine: ≥2× at 4 workers with ≥4
// CPUs, ≥1.3× at the best worker count with 2–3 CPUs, not measurable on a
// single core. It returns "" only when the full floor was met. A missed
// floor is a note, not an error: a sweep of a millisecond-sized DP on a
// shared runner says as much about the runner as about the code, so
// lbsbench -check-bench prints the note beside its "valid" verdict.
func (b *BulkDPBench) SpeedupGateNote() string {
	if b.NumCPU <= 1 || b.GOMAXPROCS <= 1 {
		return fmt.Sprintf(" (note: speedup floor skipped: recorded on a single-core box, numCPU=%d GOMAXPROCS=%d — speedups are not measurable there)",
			b.NumCPU, b.GOMAXPROCS)
	}
	var speedup4, bestMulti float64
	for _, row := range b.Sweep {
		if row.Workers > 1 && row.Speedup > bestMulti {
			bestMulti = row.Speedup
		}
		if row.Workers == 4 {
			speedup4 = row.Speedup
		}
	}
	switch {
	case b.NumCPU < 4 && bestMulti < bulkDPSpeedupFloorSmall:
		return fmt.Sprintf(" (note: best multi-worker speedup %.2fx is below the %.1fx floor for numCPU=%d — a statement about the recording machine)",
			bestMulti, bulkDPSpeedupFloorSmall, b.NumCPU)
	case b.NumCPU < 4:
		return fmt.Sprintf(" (note: speedup floor relaxed to ≥%.1fx: recorded numCPU=%d < 4)",
			bulkDPSpeedupFloorSmall, b.NumCPU)
	case speedup4 == 0:
		return fmt.Sprintf(" (note: speedup floor not evaluated: the sweep has no workers=4 row, numCPU=%d)", b.NumCPU)
	case speedup4 < bulkDPSpeedupFloor:
		return fmt.Sprintf(" (note: speedup %.2fx at 4 workers is below the %.1fx floor for numCPU=%d — a statement about the recording machine)",
			speedup4, bulkDPSpeedupFloor, b.NumCPU)
	}
	return ""
}

// LoadBulkDPBench decodes and validates a BENCH_bulkdp.json document; CI
// uses it to fail on malformed or regressed benchmark output. Every check
// is machine-independent: no unknown fields, run and machine metadata
// present, a workers=1 baseline row, and steady-state allocations below
// bulkDPAllocBudget at every worker count and for a single warm
// computeRow. The speedup is reported by SpeedupGateNote, not gated.
func LoadBulkDPBench(r io.Reader) (*BulkDPBench, error) {
	var b BulkDPBench
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("experiments: decode BENCH_bulkdp.json: %w", err)
	}
	if len(b.Sweep) == 0 {
		return nil, fmt.Errorf("experiments: BENCH_bulkdp.json has an empty sweep")
	}
	if b.Users < 1 || b.Nodes < 1 || b.K < 1 {
		return nil, fmt.Errorf("experiments: BENCH_bulkdp.json metadata invalid: users=%d nodes=%d k=%d", b.Users, b.Nodes, b.K)
	}
	if b.GOMAXPROCS < 1 || b.GoVersion == "" {
		return nil, fmt.Errorf("experiments: BENCH_bulkdp.json machine metadata missing")
	}
	if b.ComputeRowAllocs >= bulkDPAllocBudget {
		return nil, fmt.Errorf("experiments: BENCH_bulkdp.json computeRowAllocsPerOp %.1f exceeds the zero-alloc gate (<%.0f)",
			b.ComputeRowAllocs, bulkDPAllocBudget)
	}
	hasBaseline := false
	for _, row := range b.Sweep {
		if row.Workers < 1 || row.NsPerOp <= 0 || row.NodesPerSec <= 0 {
			return nil, fmt.Errorf("experiments: BENCH_bulkdp.json sweep row invalid: %+v", row)
		}
		if row.AllocsPerOp >= bulkDPAllocBudget {
			return nil, fmt.Errorf("experiments: BENCH_bulkdp.json workers=%d allocsPerOp %.1f exceeds the zero-alloc gate (<%.0f)",
				row.Workers, row.AllocsPerOp, bulkDPAllocBudget)
		}
		hasBaseline = hasBaseline || row.Workers == 1
	}
	if !hasBaseline {
		return nil, fmt.Errorf("experiments: BENCH_bulkdp.json sweep lacks the workers=1 baseline row")
	}
	return &b, nil
}

// BulkDPBenchTable renders the sweep for lbsbench. computeRow's
// steady-state allocation count is one number per document, repeated on
// every row so each output format carries it.
func BulkDPBenchTable(b *BulkDPBench) Table {
	tbl := Table{
		Name:   "bulkdp_workers",
		Header: []string{"workers", "ns_per_op", "nodes_per_sec", "allocs_per_op", "speedup", "compute_row_allocs_per_op"},
	}
	for _, r := range b.Sweep {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.0f", r.NodesPerSec),
			fmt.Sprintf("%.1f", r.AllocsPerOp),
			fmt.Sprintf("%.2f", r.Speedup),
			fmt.Sprintf("%.1f", b.ComputeRowAllocs),
		})
	}
	return tbl
}

// SpeedupSummary renders the one-line sweep summary, e.g.
// "bulkdp workers sweep: 1→12.3ms 2→6.4ms 4→3.4ms 8→2.1ms (best 5.86x @ 8 workers, GOMAXPROCS=8)".
func SpeedupSummary(b *BulkDPBench) string {
	var sb strings.Builder
	sb.WriteString("bulkdp workers sweep:")
	best := 0
	for i, r := range b.Sweep {
		fmt.Fprintf(&sb, " %d→%s", r.Workers, time.Duration(r.NsPerOp).Round(10*time.Microsecond))
		if r.Speedup > b.Sweep[best].Speedup {
			best = i
		}
	}
	fmt.Fprintf(&sb, " (best %.2fx @ %d workers, GOMAXPROCS=%d)",
		b.Sweep[best].Speedup, b.Sweep[best].Workers, b.GOMAXPROCS)
	return sb.String()
}
