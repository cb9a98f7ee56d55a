package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"policyanon/internal/experiments"
	"policyanon/internal/workload"
)

// This file is what the -exp and -scale names mean; main.go is the command
// line around them.

// experiment is one row of experimentTable: everything lbsbench knows
// about an -exp name. The -exp help text, -exp all and the unknown-name
// check are all read off the table.
type experiment struct {
	name  string
	title string
	run   func(*env) (experiments.Table, error)
	// writesFile marks an experiment with a side effect on disk; -exp all
	// leaves those out.
	writesFile bool
}

var experimentTable = []experiment{
	{name: "fig2", title: "Fig 2: synthetic population density (skew summary)",
		run: func(e *env) (experiments.Table, error) {
			return experiments.Fig2Table(experiments.Fig2(e.data, []int{8, 16, 32})), nil
		}},
	{name: "fig3", title: "Fig 3: binary tree shape over the |D| sweep",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.Fig3(e.data, e.sizes, e.k)
			return experiments.Fig3Table(rows), err
		}},
	{name: "fig4a", title: "Fig 4(a): bulk anonymization time vs |D| and servers",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.Fig4a(e.data, e.sizes, e.servers, e.k)
			return experiments.Fig4aTable(rows), err
		}},
	{name: "fig4b", title: "Fig 4(b): anonymization time vs k at the fixed |D| (-k unused)",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.Fig4b(e.data, e.fixedN, []int{10, 25, 50, 75, 100, 150})
			return experiments.Fig4bTable(rows), err
		}},
	{name: "fig5a", title: "Fig 5(a): average cloak area vs Casper/PUB/PUQ over the |D| sweep",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.Fig5a(e.data, e.sizes, e.k)
			return experiments.Fig5aTable(rows), err
		}},
	{name: "fig5b", title: "Fig 5(b): incremental maintenance vs bulk at the fixed |D|",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.Fig5b(e.data, e.fixedN, e.k,
				[]float64{0.0001, 0.001, 0.01, 0.02, 0.05, 0.10}, 200)
			return experiments.Fig5bTable(rows), err
		}},
	{name: "hilbert", title: "Extension: policy-aware-safe schemes and FindMBC, first two sweep sizes",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.Hilbert(e.data, e.sizes[:2], e.k)
			return experiments.HilbertTable(rows), err
		}},
	{name: "adaptive", title: "Extension: adaptive semi-quadrant orientation, first three sweep sizes",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.Adaptive(e.data, e.sizes[:3], e.k)
			return experiments.AdaptiveTable(rows), err
		}},
	{name: "trajectory", title: "Extension: trajectory-aware anonymity erosion at the smallest |D|",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.TrajectoryErosion(e.data, e.sizes[0], e.k, 8, -1)
			return experiments.TrajectoryTable(rows), err
		}},
	{name: "utility", title: "Extension: NN answer sizes over a 10k-POI catalogue at the fixed |D|",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.AnswerSize(e.data, e.fixedN, e.k, 10000)
			return experiments.UtilityTable(rows), err
		}},
	{name: "engines", title: "Cross-engine registry sweep at the smallest |D| (select with -engines)",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.EngineSweep(e.data, e.sizes[0], e.k, e.engineNames)
			return experiments.EnginesTable(rows), err
		}},
	{name: "workers", title: "Bulk_dp intra-tree worker sweep at the smallest |D| (-workers, -bench-time; writes -bench-out)",
		run: runWorkers, writesFile: true},
	{name: "parallel", title: "Sec VI-D: parallel utility loss vs jurisdictions",
		run: func(e *env) (experiments.Table, error) {
			rows, err := experiments.ParallelUtility(e.data, e.parallelN, e.k, []int{1, 16, 64, 256, 1024, 2048, 4096})
			return experiments.ParallelTable(rows), err
		}},
}

// runWorkers measures the worker sweep and writes it to -bench-out. The
// one-line summary goes to stderr in every format, so CSV and markdown
// pipelines still show the speedup at a glance.
func runWorkers(e *env) (experiments.Table, error) {
	bench, err := experiments.WorkersSweep(e.data, e.sizes[0], e.k, e.workerCounts, e.benchTime)
	if err != nil {
		return experiments.Table{}, err
	}
	bench.Dataset = e.scale
	err = writeFile(e.benchOut, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(bench)
	})
	if err != nil {
		return experiments.Table{}, err
	}
	fmt.Fprintln(os.Stderr, "lbsbench:", experiments.SpeedupSummary(bench))
	fmt.Fprintf(os.Stderr, "lbsbench: sweep written to %s\n", e.benchOut)
	return experiments.BulkDPBenchTable(bench), nil
}

// sizing is what a -scale name stands for.
type sizing struct {
	cfg       workload.Config
	sizes     []int // the |D| sweep; the extension tables use a prefix of it
	servers   []int // Fig 4(a) server-pool sizes
	fixedN    int   // |D| of the experiments that vary something else
	parallelN int   // |D| of the Section VI-D stress test
}

var scales = map[string]sizing{
	"small": {
		cfg:     workload.Config{MapSide: 1 << 14, Intersections: 10000, UsersPerIntersection: 5, SpreadSigma: 150},
		sizes:   []int{10000, 20000, 30000, 40000, 50000},
		servers: []int{1, 2, 4, 8, 16},
		fixedN:  30000, parallelN: 50000,
	},
	"paper": {
		cfg:     workload.Config{}, // defaults: 175k intersections x 10 = 1.75M
		sizes:   []int{100000, 250000, 500000, 1000000, 1750000},
		servers: []int{1, 2, 4, 8, 16, 32},
		fixedN:  1000000, parallelN: 1000000,
	},
}
