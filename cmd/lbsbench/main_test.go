package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"policyanon/internal/experiments"
	"policyanon/internal/workload"
)

// smallOpts is a valid small-scale command line for one experiment.
func smallOpts(exp, format string) options {
	return options{exp: exp, scale: "small", format: format, k: 50, seed: 1,
		workers: "1,2", benchTime: time.Millisecond}
}

// tinyEnv plans exp and swaps the scale for a 2,000-user dataset, so that
// tests can afford every experiment. The worker sweep writes into a
// per-test temp directory.
func tinyEnv(t *testing.T, exp string) *env {
	t.Helper()
	o := smallOpts(exp, "csv")
	o.k = 10
	o.engines = "casper,puq"
	o.benchOut = t.TempDir() + "/BENCH_bulkdp.json"
	e, err := plan(o)
	if err != nil {
		t.Fatal(err)
	}
	e.sizing = sizing{
		cfg:     workload.Config{MapSide: 1 << 12, Intersections: 400, UsersPerIntersection: 5, SpreadSigma: 60},
		sizes:   []int{500, 1000, 2000},
		servers: []int{1, 2},
		fixedN:  1000, parallelN: 2000,
	}
	e.data = experiments.NewDataset(e.cfg, o.seed)
	return e
}

// TestRunUnknownInputs pins that every flag that selects work is checked
// by plan, which generates no dataset: at -scale paper a typo must not
// cost 1.75M locations.
func TestRunUnknownInputs(t *testing.T) {
	for name, edit := range map[string]func(*options){
		"scale":      func(o *options) { o.scale = "nope" },
		"experiment": func(o *options) { o.exp = "figZZ" },
		"format":     func(o *options) { o.format = "xml" },
		"engine":     func(o *options) { o.engines = "no-such-engine" },
		"workers":    func(o *options) { o.workers = "1,zero" },
		"no workers": func(o *options) { o.workers = "," },
	} {
		o := smallOpts("fig3", "table")
		o.scale = "paper"
		edit(&o)
		if _, err := plan(o); err == nil {
			t.Errorf("unknown %s accepted", name)
		}
	}
	e, err := plan(smallOpts("fig3", "table"))
	if err != nil {
		t.Fatal(err)
	}
	if e.data.Master != nil {
		t.Error("plan generated a dataset")
	}
	if len(e.todo) != 1 || e.todo[0].name != "fig3" {
		t.Errorf("fig3 planned as %v", e.todo)
	}
}

func TestSweepEngines(t *testing.T) {
	names := sweepEngines("")
	if len(names) == 0 {
		t.Fatal("default sweep is empty")
	}
	for _, n := range names {
		if n == "bulkdp-naive" {
			t.Error("default sweep includes the quadratic bulkdp-naive ablation")
		}
	}
	got := sweepEngines("casper, pub")
	if len(got) != 2 || got[0] != "casper" || got[1] != "pub" {
		t.Errorf("explicit list parsed as %v", got)
	}
}

// The small-scale experiments are exercised through run() to keep the CLI
// wiring covered; heavy paths run at paper scale only when invoked
// explicitly.
func TestRunSingleExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out bytes.Buffer
	if err := run(smallOpts("fig3", "table"), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Fig 3", "max_leaf_count", "50000  "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output lacks %q:\n%s", want, out.String())
		}
	}
	if err := run(smallOpts("fig2", "csv"), io.Discard); err != nil {
		t.Fatal(err)
	}
	// Tracing path: fig3 builds anonymizers, so the trace must be non-empty.
	o := smallOpts("fig3", "csv")
	o.traceOut = t.TempDir() + "/trace.json"
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	// The registry sweep over the two k-inside baselines stays cheap and
	// exercises the engines experiment end to end.
	o = smallOpts("engines", "csv")
	o.engines = "casper,puq"
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunWorkersSweep runs the workers experiment end to end on a tiny
// budget and validates the emitted BENCH_bulkdp.json with -check-bench. A
// millisecond of measurement on whatever CPUs `go test ./...` leaves this
// package is noise (0.77x was measured on an idle 2-CPU box); -check-bench
// reports that as a note, so the document must validate regardless.
func TestRunWorkersSweep(t *testing.T) {
	o := smallOpts("workers", "csv")
	o.benchOut = t.TempDir() + "/BENCH_bulkdp.json"
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := checkBenchFile(o.benchOut); err != nil {
		t.Fatalf("emitted sweep fails validation: %v", err)
	}
}

// TestAllWritesNoFile pins that -exp all, the documented way to run from
// the repo root, cannot overwrite the tracked BENCH_bulkdp.json: all is
// every experiment that only prints a table.
func TestAllWritesNoFile(t *testing.T) {
	e := tinyEnv(t, "all")
	e.benchOut = "BENCH_bulkdp.json" // the flag's default, relative to cwd
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := e.execute(io.Discard); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir("."); err != nil || len(left) != 0 {
		t.Fatalf("-exp all left %v behind (err %v)", left, err)
	}
	if len(e.todo) != len(experimentTable)-1 {
		t.Errorf("all planned %d of %d experiments, want every one but workers", len(e.todo), len(experimentTable))
	}
}

// TestEveryExperimentEveryFormat walks the experiment table: every entry
// is reachable by its own name, returns a rectangular non-empty table, and
// renders in every output format.
func TestEveryExperimentEveryFormat(t *testing.T) {
	for _, x := range experimentTable {
		t.Run(x.name, func(t *testing.T) {
			e := tinyEnv(t, x.name)
			if len(e.todo) != 1 || e.todo[0].name != x.name || x.title == "" {
				t.Fatalf("-exp %s planned as %v (title %q)", x.name, e.todo, x.title)
			}
			tbl, err := x.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("row %v has %d cells, header %v has %d", row, len(row), tbl.Header, len(tbl.Header))
				}
			}
			for name, write := range formats {
				var out bytes.Buffer
				if err := write(tbl, &out); err != nil || out.Len() == 0 {
					t.Errorf("format %s: %d bytes, err %v", name, out.Len(), err)
				}
			}
		})
	}
}
