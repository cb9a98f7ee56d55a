package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// toy is the smoke test's scale: the contract's code on populations that
// set up in a fraction of a second.
var toy = sizes{MasterIntersections: 5000,
	MasterSHA256: "2b637d4f9fba5855ef61457fe3bb5375616951e4706ab6f2e4ee97c96bd4027c",
	ServeUsers:   20000, InstallUsers: 20000, MovesUsers: 20000,
	POIs: 2000, WorkingSet: 1 << 11}

var serverBin string // cmd/anonserver, built once for all tests

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test")
	if err == nil {
		serverBin, err = buildServer(context.Background(), dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs every workload, plain and traced, at toy size against a
// real child server and holds the results to BENCHMARK.json. It asserts
// schema, bookkeeping, correctness and the repeatability of exact counts
// — never a time — so it passes alike with GOMAXPROCS 1 or 2, on a loaded
// or an idle machine.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s: BENCHMARK.json gives no reason for it", w.Name)
		}
	}
	sort.Strings(declared)
	have := append([]string(nil), workloadOrder...)
	sort.Strings(have)
	if !reflect.DeepEqual(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness has %v", declared, have)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, name)
		}
	}

	bin := serverBin
	const seed, seconds = 42, 1
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			plain := smokeRun(t, sp, bin, w, seed, seconds, false)
			if _, ok := plain.Metrics["setup_s"]; !ok {
				t.Error("no setup_s")
			}
			first := smokeRun(t, sp, bin, w, seed, seconds, true)
			second := smokeRun(t, sp, bin, w, seed, seconds, true)
			if !reflect.DeepEqual(first.Exact, second.Exact) {
				t.Errorf("exact counts differ between two traced runs of seed %d:\n%v\n%v", seed, first.Exact, second.Exact)
			}
		})
	}
}

func smokeRun(t *testing.T, sp *spec, bin, workload string, seed int64, seconds float64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(context.Background(), bin, workload, toy, seed, seconds, traced)
	if err != nil {
		t.Fatalf("traced=%v: %v\nserver log: %s", traced, err, res.ServerLog)
	}
	if err := checkDeclared(sp, res); err != nil {
		t.Errorf("traced=%v: %v", traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("traced=%v: correct=%v attempted=%d failed=%d checks=%+v failures=%v",
			traced, res.Correct, res.Attempted, res.Failed, res.Checks, res.Failures)
	}
	for _, p := range res.Phases {
		if p.Sent != p.Succeeded+p.Failed || p.Sent < 1 {
			t.Errorf("phase %s: sent %d, succeeded %d, failed %d", p.Name, p.Sent, p.Succeeded, p.Failed)
		}
	}
	return res
}

// TestToReferenceHost: on a host that runs the speed kernel a quarter
// slower than the reference, times are reported a quarter shorter than
// timed, rates a quarter higher, sizes as they are.
func TestToReferenceHost(t *testing.T) {
	res := &result{}
	res.set("latency_p50_ms", 125, "ms")
	res.set("setup_s", 2.5, "s")
	res.set("throughput_per_s", 800, "1/s")
	res.set("server_rss_mb", 100, "MB")
	res.toReferenceHost(1.25)
	for name, want := range map[string]float64{"latency_p50_ms": 100, "setup_s": 2, "throughput_per_s": 1000, "server_rss_mb": 100} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if res.Detail["raw.latency_p50_ms"] != 125 || res.Detail["raw.throughput_per_s"] != 800 || res.Detail["host_speed_factor"] != 1.25 {
		t.Errorf("detail %v lacks the values as timed or the factor", res.Detail)
	}
	if _, ok := res.Detail["raw.server_rss_mb"]; ok {
		t.Error("a size was restated")
	}
	h := &hostSpeed{ms: []float64{speedRefMs, 2 * speedRefMs, 3 * speedRefMs}}
	if got := h.factor(); got != 2 {
		t.Errorf("factor of kernel times 1x, 2x, 3x the reference = %v, want their median, 2", got)
	}
}

func TestCompare(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
		{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	}}
	base := func() *envelope {
		return &envelope{Seed: 1, NProc: 2, GOMAXPROCS: 2, Results: []*result{{
			Workload: "moves_publish", Users: 100, Seconds: 20, Attempted: 50,
			Metrics: map[string]metric{"server_rss_mb": {100, "MB"}, "throughput_per_s": {1000, "1/s"}, "latency_p50_ms": {100, "ms"}},
			Exact:   map[string]int64{"tree.nodes": 7},
		}}}
	}
	dir := t.TempDir()
	run := func(change func(b *envelope)) (inside bool, report string, err error) {
		a, b := base(), base()
		change(b)
		pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
		if err := a.write(pa); err != nil {
			t.Fatal(err)
		}
		if err := b.write(pb); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		inside, err = compareFiles(&out, sp, pa, pb)
		return inside, out.String(), err
	}
	for _, c := range []struct {
		name   string
		change func(b *envelope)
		inside bool
	}{
		{"identical", func(b *envelope) {}, true},
		{"inside the bound", func(b *envelope) { b.Results[0].Metrics["latency_p50_ms"] = metric{120, "ms"} }, true},
		{"outside the bound", func(b *envelope) { b.Results[0].Metrics["latency_p50_ms"] = metric{130, "ms"} }, false},
		{"outside a tighter bound", func(b *envelope) { b.Results[0].Metrics["server_rss_mb"] = metric{116, "MB"} }, false},
		{"better", func(b *envelope) { b.Results[0].Metrics["throughput_per_s"] = metric{2000, "1/s"} }, true},
		{"higher-is-better fell", func(b *envelope) { b.Results[0].Metrics["throughput_per_s"] = metric{700, "1/s"} }, false},
		{"metric missing from B", func(b *envelope) { delete(b.Results[0].Metrics, "server_rss_mb") }, false},
		{"metric only in B", func(b *envelope) { b.Results[0].Metrics["extra"] = metric{1, "ms"} }, false},
		{"workload only in B", func(b *envelope) {
			b.Results = append(b.Results, &result{Workload: "install_repeat", Users: 1, Seconds: 20})
		}, false},
		{"workload missing from B", func(b *envelope) { b.Results = nil }, false},
		{"an operation failed", func(b *envelope) { b.Results[0].Failed = 1 }, false},
		{"exact count differs", func(b *envelope) { b.Results[0].Exact["tree.nodes"] = 8 }, false},
		{"exact count missing", func(b *envelope) { delete(b.Results[0].Exact, "tree.nodes") }, false},
	} {
		inside, report, err := run(c.change)
		if err != nil || inside != c.inside {
			t.Errorf("%s: inside=%v err=%v, want inside=%v\n%s", c.name, inside, err, c.inside, report)
		}
	}
	for name, change := range map[string]func(b *envelope){
		"seed":       func(b *envelope) { b.Seed = 2 },
		"nproc":      func(b *envelope) { b.NProc = 1 },
		"population": func(b *envelope) { b.Results[0].Users = 200 },
		"window":     func(b *envelope) { b.Results[0].Seconds = 10 },
	} {
		if _, _, err := run(change); err == nil {
			t.Errorf("files that differ in %s were compared", name)
		}
	}
	if verdict, ok := judge(0, 0, "lower", 0.1); !ok {
		t.Errorf("0 against 0: %s", verdict)
	}
	if verdict, ok := judge(0, 1, "lower", 0.1); ok {
		t.Errorf("a rise from 0 passed: %s", verdict)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {20, 1}, {75, 4}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 50, End: 90, Parent: 0},
	}}
	by := r.byLayer()
	if got := by["parent"]; len(got.dur) != 1 || got.dur[0] != 100e-6 || got.self[0] != 30e-6 {
		t.Errorf("parent %+v, want one span of 100 ns with 30 ns self time", got)
	}
	if got := by["child"]; len(got.dur) != 2 || got.self[0] != 30e-6 || got.self[1] != 40e-6 {
		t.Errorf("child %+v, want two spans that are all self time", got)
	}
	if got := by["parent"].childrenMs(); math.Abs(got-70e-6) > 1e-12 {
		t.Errorf("parent's children cover %v ms, want 70 ns", got)
	}
	if err := r.nested(); err != nil {
		t.Errorf("nested: %v", err)
	}
	r.spans[2].End = 120
	if err := r.nested(); err == nil {
		t.Error("nested accepted a child that ends after its parent")
	}
	// A replay whose children outlast the black-box call leaves no
	// negative self time.
	if got := selfMs(by["child"], by["parent"]); got != 0 {
		t.Errorf("self time of a 30 ns call against 70 ns of replayed children = %v ms, want 0", got)
	}
	if got := selfMs(by["parent"], by["parent"]); math.Abs(got-30e-6) > 1e-12 {
		t.Errorf("self time of the parent against its own children = %v ms, want 30 ns", got)
	}
}
