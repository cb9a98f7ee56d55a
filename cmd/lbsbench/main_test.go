package main

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"policyanon/internal/experiments"
)

// The small-scale experiments are exercised through run() to keep the CLI
// wiring covered; heavy paths run at paper scale only when invoked
// explicitly.
func TestRunUnknownInputs(t *testing.T) {
	if err := run("fig3", "nope", 10, 1, "table", "", "", false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run("figZZ", "small", 10, 1, "table", "", "", false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run("fig2", "small", 10, 1, "xml", "", "", false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run("engines", "small", 10, 1, "table", "no-such-engine", "", false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err == nil {
		t.Error("unknown engine name accepted")
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

func TestRunSingleExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Redirect stdout noise away from the test log.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	if err := run("fig3", "small", 50, 1, "table", "", "", false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("fig2", "small", 50, 1, "csv", "", "", false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err != nil {
		t.Fatal(err)
	}
	// Tracing path: fig3 builds anonymizers, so the trace must be non-empty.
	trace := t.TempDir() + "/trace.json"
	if err := run("fig3", "small", 50, 1, "csv", "", trace, false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	// The registry sweep over the two k-inside baselines stays cheap and
	// exercises the engines experiment end to end.
	if err := run("engines", "small", 50, 1, "csv", "casper,puq", "", false, "", "1", time.Millisecond, "", 0.5, "", "", 64, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunWorkersSweep runs the workers experiment end to end on a tiny
// budget and validates the shape of the emitted BENCH_bulkdp.json. The
// speedup gate is not asserted: a millisecond of measurement on whatever
// CPUs `go test ./...` leaves this package is noise (0.77x was measured on
// an idle 2-CPU box), and the gate belongs to -check-bench on a tracked
// baseline.
func TestRunWorkersSweep(t *testing.T) {
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	out := t.TempDir() + "/BENCH_bulkdp.json"
	if err := run("workers", "small", 50, 1, "csv", "", "", false, out, "1,2", time.Millisecond, "", 0.5, "", "", 64, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := checkBenchFile(out); err != nil && !errors.Is(err, experiments.ErrSpeedupGate) {
		t.Fatalf("emitted sweep fails validation: %v", err)
	}
	// Malformed worker lists are rejected before any measurement.
	if err := run("workers", "small", 50, 1, "csv", "", "", false, out, "1,zero", time.Millisecond, "", 0.5, "", "", 64, ""); err == nil {
		t.Error("malformed -workers accepted")
	}
}

// TestRunAuditBench runs the privacy-observatory overhead benchmark end
// to end on a tiny budget and validates the emitted BENCH_audit.json
// through the same -check-bench gate CI uses (the overhead budget is not
// asserted here — a millisecond measurement is all noise — only the
// document's shape via the sniffing dispatcher).
func TestRunAuditBench(t *testing.T) {
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	out := t.TempDir() + "/BENCH_audit.json"
	if err := run("audit", "small", 50, 1, "csv", "", "", false, "", "1", 5*time.Millisecond, out, 0.5, "", "", 64, ""); err != nil {
		t.Fatal(err)
	}
	_, err = checkBenchFile(out)
	if err != nil && !strings.Contains(err.Error(), "budget") {
		t.Fatalf("emitted audit bench fails validation: %v", err)
	}
	// An out-of-range rate is rejected before any measurement.
	if err := run("audit", "small", 50, 1, "csv", "", "", false, "", "1", time.Millisecond, out, 1.5, "", "", 64, ""); err == nil {
		t.Error("audit rate 1.5 accepted")
	}
}

// TestCheckBenchNegativeOverheadPassesWithNote exercises the noise
// handling: a tracked document whose audited run out-ran the baseline
// (negative overheadPct) validates, and the note flags it.
func TestCheckBenchNegativeOverheadPassesWithNote(t *testing.T) {
	doc := `{"bench":"audit","dataset":"small","users":500,"k":10,"engine":"bulkdp-binary",
		"gomaxprocs":4,"numCPU":4,"cpuModel":"x","goVersion":"go1.24",
		"off":{"mode":"off","rate":0,"requests":1000,"reqPerSec":5000,"nsPerReq":200000,"audited":0},
		"sampled":{"mode":"sampled","rate":0.015625,"requests":990,"reqPerSec":5025,"nsPerReq":199000,"audited":15},
		"overheadPct":-0.47,"minKAware":10,"minKUnaware":12,"breaches":0}`
	path := t.TempDir() + "/BENCH_audit.json"
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	note, err := checkBenchFile(path)
	if err != nil {
		t.Fatalf("negative overhead failed validation: %v", err)
	}
	if !strings.Contains(note, "-0.47") || !strings.Contains(note, "noise") {
		t.Fatalf("note = %q, want the raw noise value flagged", note)
	}
	// A positive in-budget overhead gets no note.
	pos := strings.Replace(doc, `"overheadPct":-0.47`, `"overheadPct":1.2`, 1)
	if err := os.WriteFile(path, []byte(pos), 0o600); err != nil {
		t.Fatal(err)
	}
	if note, err := checkBenchFile(path); err != nil || note != "" {
		t.Fatalf("positive overhead: note=%q err=%v", note, err)
	}
}

// TestCheckAllBenchFiles validates the one-pass CI mode: every
// BENCH_*.json in the working directory is checked, and one invalid
// document fails the pass while the rest still report.
func TestCheckAllBenchFiles(t *testing.T) {
	dir := t.TempDir()
	oldWD, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(oldWD)

	// No tracked documents at all is a failure, not a silent pass.
	var buf strings.Builder
	if err := checkAllBenchFiles(&buf); err == nil {
		t.Fatal("empty directory passed -check-bench-all")
	}

	good := `{"bench":"audit","dataset":"small","users":500,"k":10,"engine":"bulkdp-binary",
		"gomaxprocs":4,"numCPU":4,"cpuModel":"x","goVersion":"go1.24",
		"off":{"mode":"off","rate":0,"requests":1000,"reqPerSec":5000,"nsPerReq":200000,"audited":0},
		"sampled":{"mode":"sampled","rate":0.015625,"requests":990,"reqPerSec":4950,"nsPerReq":202000,"audited":15},
		"overheadPct":1.0,"minKAware":10,"minKUnaware":12,"breaches":0}`
	if err := os.WriteFile("BENCH_audit.json", []byte(good), 0o600); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := checkAllBenchFiles(&buf); err != nil {
		t.Fatalf("valid set failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "BENCH_audit.json: valid") {
		t.Fatalf("missing per-file report: %q", buf.String())
	}

	if err := os.WriteFile("BENCH_churn.json", []byte(`{"bench":"churn"`), 0o600); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = checkAllBenchFiles(&buf)
	if err == nil {
		t.Fatal("invalid document passed -check-bench-all")
	}
	if !strings.Contains(buf.String(), "BENCH_churn.json: INVALID") ||
		!strings.Contains(buf.String(), "BENCH_audit.json: valid") {
		t.Fatalf("per-file reporting incomplete: %q", buf.String())
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("failure tally wrong: %v", err)
	}
}

// TestRunServeBench runs the amortized-serving benchmark end to end on a
// tiny budget and validates the emitted BENCH_serve.json through the
// same -check-bench gate CI uses (the speedup floor is not asserted here
// — a millisecond measurement is all noise — only the document's shape
// via the sniffing dispatcher).
func TestRunServeBench(t *testing.T) {
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	out := t.TempDir() + "/BENCH_serve.json"
	if err := run("serve", "small", 50, 1, "csv", "", "", false, "", "1", 5*time.Millisecond, "", 0.5, "", out, 16, ""); err != nil {
		t.Fatal(err)
	}
	_, err = checkBenchFile(out)
	if err != nil && !strings.Contains(err.Error(), "gate") {
		t.Fatalf("emitted serve bench fails validation: %v", err)
	}
	// A degenerate batch size is rejected before any measurement.
	if err := run("serve", "small", 50, 1, "csv", "", "", false, "", "1", time.Millisecond, "", 0.5, "", out, 1, ""); err == nil {
		t.Error("batch size 1 accepted")
	}
}
