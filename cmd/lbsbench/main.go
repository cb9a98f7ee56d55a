// Command lbsbench regenerates the paper's evaluation tables and figures
// (Section VI, Figures 2–5) from the synthetic Bay-Area dataset, plus the
// extension tables in EXPERIMENTS.md and the intra-tree worker sweep. The
// cost of the running server is not measured here: that is benchmark/
// (BENCHMARK.json), which drives the real anonserver from outside.
//
// Usage:
//
//	lbsbench -exp all -scale small
//	lbsbench -exp fig4a -scale paper           # full 1.75M-location sweep
//	lbsbench -exp fig5a -k 50 -format csv      # machine-readable output
//
// The experiments are the rows of experimentTable (experiments.go);
// lbsbench -h lists them. -exp all runs every one that only prints a
// table. -exp workers also writes a file (-bench-out, default
// BENCH_bulkdp.json, the tracked baseline) and so runs only when named;
// -check-bench validates such a file and exits.
//
// All comparative experiments resolve their policies from the engine
// registry (internal/engine), so output keys are stable registry names.
//
// Observability: -trace FILE writes a Chrome trace_event JSON file of
// every anonymization phase the selected experiments ran (open in
// chrome://tracing or ui.perfetto.dev); -phase-summary prints the
// aggregated per-phase timing table to stderr, the combine/pass-up/
// extract breakdown the Section VI evaluation is built around. See
// docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"policyanon/internal/engine"
	"policyanon/internal/experiments"
	"policyanon/internal/obs"
	_ "policyanon/internal/parallel" // register the "parallel" engine
)

// options is the command line.
type options struct {
	exp, scale, format string
	k                  int
	seed               int64
	engines            string
	traceOut           string
	phases             bool
	benchOut           string
	workers            string
	benchTime          time.Duration
}

var formats = map[string]func(experiments.Table, io.Writer) error{
	"table":    experiments.Table.WriteText,
	"csv":      experiments.Table.WriteCSV,
	"markdown": experiments.Table.WriteMarkdown,
}

// env is a validated command line plus the dataset it runs over.
type env struct {
	options
	sizing
	todo         []experiment
	workerCounts []int    // -workers, parsed
	engineNames  []string // -engines, resolved
	data         experiments.Dataset
}

func main() {
	expUsage := "experiment: all (every one that writes no file), or one of"
	for _, x := range experimentTable {
		expUsage += fmt.Sprintf("\n%-10s  %s", x.name, x.title)
	}
	var o options
	flag.StringVar(&o.exp, "exp", "all", expUsage)
	flag.StringVar(&o.scale, "scale", "small", "dataset scale: small (~50k users) or paper (1.75M users)")
	flag.IntVar(&o.k, "k", 50, "anonymity parameter k")
	flag.Int64Var(&o.seed, "seed", 42, "dataset seed")
	flag.StringVar(&o.format, "format", "table", "output format: table|csv|markdown")
	flag.StringVar(&o.engines, "engines", "", "comma-separated registry names for -exp engines (default: all but bulkdp-naive)")
	flag.StringVar(&o.traceOut, "trace", "", "write a Chrome trace_event JSON file of the run")
	flag.BoolVar(&o.phases, "phase-summary", false, "print per-phase timing table to stderr")
	flag.StringVar(&o.benchOut, "bench-out", "BENCH_bulkdp.json", "output file for the -exp workers sweep")
	flag.StringVar(&o.workers, "workers", "1,2,4,8", "comma-separated worker counts for -exp workers")
	flag.DurationVar(&o.benchTime, "bench-time", time.Second, "measurement budget per worker count for -exp workers")
	checkBench := flag.String("check-bench", "", "validate a BENCH_bulkdp.json document and exit (CI gate)")
	flag.Parse()

	var err error
	if *checkBench != "" {
		var note string
		if note, err = checkBenchFile(*checkBench); err == nil {
			fmt.Printf("%s: valid%s\n", *checkBench, note)
		}
	} else {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsbench:", err)
		os.Exit(1)
	}
}

// checkBenchFile is the -check-bench mode: decode and validate a worker
// sweep document. The returned note says how its speedup compares with
// the floor for the machine that recorded it; that is never a failure.
func checkBenchFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	b, err := experiments.LoadBulkDPBench(f)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return b.SpeedupGateNote(), nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseWorkerList parses the -workers flag ("1,2,4,8").
func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-workers lists no counts")
	}
	return out, nil
}

// sweepEngines resolves the -engines flag: an explicit comma list, or
// every registered engine except the quadratic bulkdp-naive ablation,
// which is unusable at benchmark sizes.
func sweepEngines(flagVal string) []string {
	if names := splitList(flagVal); len(names) > 0 {
		return names
	}
	var names []string
	for _, n := range engine.Names() {
		if n != "bulkdp-naive" {
			names = append(names, n)
		}
	}
	return names
}

// plan validates every flag that selects work and resolves it into an env
// that lacks only the dataset, so a mistyped name costs nothing: at -scale
// paper the dataset is 1.75M generated locations.
func plan(o options) (*env, error) {
	e := &env{options: o}
	var ok bool
	if e.sizing, ok = scales[o.scale]; !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	if formats[o.format] == nil {
		return nil, fmt.Errorf("unknown format %q", o.format)
	}
	for _, x := range experimentTable {
		if o.exp == x.name || o.exp == "all" && !x.writesFile {
			e.todo = append(e.todo, x)
		}
	}
	if len(e.todo) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (lbsbench -h lists them)", o.exp)
	}
	var err error
	if e.workerCounts, err = parseWorkerList(o.workers); err != nil {
		return nil, err
	}
	e.engineNames = sweepEngines(o.engines)
	for _, n := range e.engineNames {
		if _, err := engine.Get(n); err != nil {
			return nil, fmt.Errorf("-engines: %w", err)
		}
	}
	return e, nil
}

func run(o options, w io.Writer) error {
	e, err := plan(o)
	if err != nil {
		return err
	}
	start := time.Now()
	if o.format == "table" {
		fmt.Fprintf(w, "generating %s-scale dataset (seed %d)...\n", o.scale, o.seed)
	}
	e.data = experiments.NewDataset(e.cfg, o.seed)
	if o.format == "table" {
		fmt.Fprintf(w, "master set: %d locations in %v; k=%d, |D| sweep %v, fixed |D|=%d (Sec VI-D: %d)\n\n",
			e.data.Master.Len(), time.Since(start).Round(time.Millisecond), o.k, e.sizes, e.fixedN, e.parallelN)
	}
	var tracer *obs.Tracer
	if o.traceOut != "" || o.phases {
		tracer = obs.NewTracer()
		e.data.Ctx = obs.WithTracer(context.Background(), tracer)
	}
	if err := e.execute(w); err != nil {
		return err
	}
	if o.phases {
		if err := tracer.WritePhaseTable(os.Stderr); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		if err := writeFile(o.traceOut, tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lbsbench: trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", o.traceOut)
	}
	return nil
}

// execute runs the planned experiments in table order and writes each
// result in the chosen format.
func (e *env) execute(w io.Writer) error {
	for _, x := range e.todo {
		if e.format == "table" {
			fmt.Fprintf(w, "== %s ==\n", x.title)
		}
		tbl, err := x.run(e)
		if err != nil {
			return fmt.Errorf("-exp %s: %w", x.name, err)
		}
		if err := formats[e.format](tbl, w); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first of
// the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
