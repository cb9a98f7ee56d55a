package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number. Values keep every digit measured.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness assertion of the oracle outside the timed
// operations (policy cost, audit, post-drain cloak comparison).
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload produced. Metrics holds
// the end-to-end metrics of a plain run or the per-layer metrics of a
// traced one, under the names BENCHMARK.json declares.
type result struct {
	Workload     string             `json:"workload"`
	Traced       bool               `json:"traced"`
	Users        int                `json:"users"`
	Seconds      float64            `json:"seconds"`
	SetupSeconds []float64          `json:"setup_seconds"`
	Phases       []phase            `json:"phases"`
	Metrics      map[string]metric  `json:"metrics"`
	Detail       map[string]float64 `json:"detail,omitempty"`
	Exact        map[string]int64   `json:"exact,omitempty"`
	Checks       []check            `json:"checks,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Correct      bool               `json:"correct"`
	Failures     []string           `json:"failures,omitempty"`
	ServerLog    string             `json:"server_log,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) detail(name string, v float64) {
	if r.Detail == nil {
		r.Detail = make(map[string]float64)
	}
	r.Detail[name] = v
}

func (r *result) exact(name string, v int64) {
	if r.Exact == nil {
		r.Exact = make(map[string]int64)
	}
	r.Exact[name] = v
}

func (r *result) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// toReferenceHost restates the time-based end-to-end metrics as they
// would read on a host where the speed kernel takes speedRefMs (see
// hostSpeed): times are divided by the factor, rates multiplied, sizes
// left alone. The values as timed go to the detail section under raw.*.
func (r *result) toReferenceHost(factor float64) {
	r.detail("host_speed_factor", factor)
	for name, m := range r.Metrics {
		switch m.Unit {
		case "ms", "s":
			r.detail("raw."+name, m.Value)
			m.Value /= factor
		case "1/s":
			r.detail("raw."+name, m.Value)
			m.Value *= factor
		}
		r.Metrics[name] = m
	}
}

// finish totals the phases and checks into the driver's three counts.
func (r *result) finish() {
	r.Attempted, r.Failed = 0, 0
	for _, p := range r.Phases {
		r.Attempted += p.Sent
		r.Failed += p.Failed
	}
	for _, c := range r.Checks {
		r.Attempted++
		if !c.OK {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func (r *result) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// print writes the human-readable report: every metric by name with its
// unit, then phases, sample counts and checks.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "workload %s  users=%d  window=%.1fs  (%s)\n", r.Workload, r.Users, r.Seconds, kind)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Exact) {
		fmt.Fprintf(w, "  %-30s %16d (exact)\n", name, r.Exact[name])
	}
	for _, name := range sortedKeys(r.Detail) {
		fmt.Fprintf(w, "  . %-28s %16.6g\n", name, r.Detail[name])
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-14s closed loop, 1 connection, %.2fs sent=%d ok=%d failed=%d\n",
			p.Name, p.Seconds, p.Sent, p.Succeeded, p.Failed)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-32s %s\n", c.Name, status)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// envelope is the result file: where and on what the numbers were taken,
// then one result per workload run.
type envelope struct {
	Benchmark  string    `json:"benchmark"`
	Seed       int64     `json:"seed"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPUModel   string    `json:"cpu_model"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Results    []*result `json:"results"`
}

func newEnvelope(seed int64) *envelope {
	return &envelope{
		Benchmark:  "policyanon/benchmark",
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit is the checked-out revision, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (e *envelope) write(path string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readEnvelope(path string) (*envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &e, nil
}
