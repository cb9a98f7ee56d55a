// Command benchmark is the repository's one benchmark: it drives the
// real anonserver, as a child process with default flags, over loopback
// HTTP with generated inputs, checks every answer against a from-scratch
// oracle, and reports the end-to-end metrics BENCHMARK.json declares; a
// traced run (-trace 1) replays the same inputs in-process through each
// layer's exported functions and reports the per-layer metrics. See
// README.md in this directory.
//
// The driver's form, from the repository root:
//
//	bash benchmark/run.sh --workload serve_single --seed 7 --seconds 25 --trace 0
//
// By hand:
//
//	go run ./benchmark -workload all -out results.json
//	go run ./benchmark -workload moves_publish -trace 1
//	go run ./benchmark -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// spec is BENCHMARK.json, the declaration this program is held to.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := mainCode(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func mainCode(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: serve_single, serve_batch_miss, install_repeat, moves_publish, or all")
		seed     = fs.Int64("seed", 42, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		out      = fs.String("out", "", "write the full result file here")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark declaration")
		buildDir = fs.String("build-dir", ".bench_build", "where the server binary is built")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// usage reports a problem that is not a measurement: exit code 2.
	usage := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return usage(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return usage(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return usage(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			return usage(fmt.Errorf("unknown workload %q", n))
		}
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	dir, err := filepath.Abs(*buildDir)
	if err != nil {
		return usage(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return usage(err)
	}
	bin, err := buildServer(ctx, dir)
	if err != nil {
		return usage(err)
	}

	env := newEnvelope(*seed)
	code := 0
	for _, name := range names {
		res, err := runWorkload(ctx, bin, name, contract, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			if res.ServerLog != "" {
				fmt.Fprintf(stderr, "server log:\n%s\n", res.ServerLog)
			}
			return 1
		}
		env.Results = append(env.Results, res)
		res.print(stderr)
		if err := checkDeclared(sp, res); err != nil {
			// No result line: the driver must not take a partial set for a run.
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			code = 1
			continue
		}
		fmt.Fprintln(stdout, res.contractLine())
		if !res.Correct {
			code = 1
		}
	}
	if *out != "" {
		if err := env.write(*out); err != nil {
			return usage(err)
		}
	}
	return code
}

// runWorkload generates the workload's inputs from the seed and runs it:
// end to end against a child server, and for a traced run through the
// in-process layer probe as well.
func runWorkload(ctx context.Context, bin, name string, sz sizes, seed int64, seconds float64, traced bool) (*result, error) {
	r := &run{ctx: ctx, bin: bin, res: &result{Workload: name, Traced: traced}, speed: newHostSpeed()}
	inst, err := workloads[name](sz, seed)
	if err != nil {
		return r.res, err
	}
	if traced {
		// The traced run wants the window's counters and median latency,
		// not a steady setup_s: one set-up, half the window, the rest of
		// the time goes to the probe.
		seconds /= 2
	}
	stats, err := r.execute(inst, traced, seconds)
	r.res.Failures = r.fails.list()
	if err != nil {
		return r.res, err
	}
	if traced {
		if err := probeLayers(r.res, inst, stats); err != nil {
			return r.res, fmt.Errorf("layer probe: %w", err)
		}
	} else {
		r.res.toReferenceHost(r.speed.factor())
	}
	r.res.finish()
	return r.res, nil
}

// checkDeclared holds a result to BENCHMARK.json: it carries exactly the
// declared metrics of its kind, each with the declared unit.
func checkDeclared(sp *spec, res *result) error {
	want := sp.EndToEnd
	if res.Traced {
		want = sp.PerLayer
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but was not emitted", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s emitted in %q, declared in %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	return nil
}
