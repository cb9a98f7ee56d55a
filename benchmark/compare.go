package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compareFiles prints, per workload and metric of two result files, both
// values, the ratio B/A with its base, and whether B is inside the bound
// BENCHMARK.json fixes (B may be worse than A by at most that share of
// A). The failed ÷ attempted ratio may not rise at all, exact counts must
// be identical, and a workload or metric present in only one file counts
// as outside.
// Files taken with different seeds, populations, windows or processor
// counts are refused. It reports whether everything was inside.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := readEnvelope(pathA)
	if err != nil {
		return false, err
	}
	b, err := readEnvelope(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s  (commit %s, seed %d, %s, nproc %d, GOMAXPROCS %d)\n", pathA, a.Commit, a.Seed, a.CPUModel, a.NProc, a.GOMAXPROCS)
	fmt.Fprintf(w, "B = %s  (commit %s, seed %d, %s, nproc %d, GOMAXPROCS %d)\n", pathB, b.Commit, b.Seed, b.CPUModel, b.NProc, b.GOMAXPROCS)
	if a.Seed != b.Seed || a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
		return false, fmt.Errorf("not comparable: seed, nproc or GOMAXPROCS differ")
	}
	specs := make(map[string]metricSpec)
	for _, m := range sp.EndToEnd {
		specs[m.Name] = m
	}
	for _, m := range sp.PerLayer {
		specs[m.Name] = m
	}

	inside := true
	outside := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
		inside = false
	}
	for _, ra := range a.Results {
		rb := findResult(b, ra.Workload, ra.Traced)
		if rb == nil {
			outside("\n%s (traced=%v): OUTSIDE: missing from B\n", ra.Workload, ra.Traced)
			continue
		}
		if ra.Users != rb.Users || ra.Seconds != rb.Seconds {
			return false, fmt.Errorf("not comparable: %s ran %d users for %g s in A, %d users for %g s in B",
				ra.Workload, ra.Users, ra.Seconds, rb.Users, rb.Seconds)
		}
		title := ra.Workload
		if ra.Traced {
			title += "  (traced run: per-layer metrics have no bound)"
		}
		fmt.Fprintf(w, "\n%s\n", title)
		fmt.Fprintf(w, "  %-28s %14s %14s %10s  %s\n", "metric", "A", "B", "B/A", "verdict")
		// row prints one metric; a negative bound means it has none.
		row := func(name string, va, vb float64, unit, better string, bound float64) {
			ratio := "n/a"
			if va != 0 {
				ratio = fmt.Sprintf("%.3f", vb/va)
			}
			verdict := ""
			if bound >= 0 {
				var ok bool
				if verdict, ok = judge(va, vb, better, bound); !ok {
					inside = false
				}
			}
			fmt.Fprintf(w, "  %-28s %14.6g %14.6g %10s  %s %s\n", name, va, vb, ratio, unit, verdict)
		}
		row("failed/attempted", errorRate(ra), errorRate(rb), "ratio", "lower", 0)
		for _, name := range unionKeys(ra.Metrics, rb.Metrics) {
			ma, inA := ra.Metrics[name]
			mb, inB := rb.Metrics[name]
			if !inA || !inB {
				outside("  %-28s OUTSIDE: in one file only\n", name)
				continue
			}
			bound := -1.0
			if !ra.Traced {
				bound = specs[name].Bound
			}
			row(name, ma.Value, mb.Value, ma.Unit, specs[name].Better, bound)
		}
		for _, name := range unionKeys(ra.Exact, rb.Exact) {
			ca, inA := ra.Exact[name]
			cb, inB := rb.Exact[name]
			verdict := "identical"
			if !inA || !inB || ca != cb {
				verdict = "DIFFERENT: exact counts must repeat for one seed"
				inside = false
			}
			fmt.Fprintf(w, "  %-28s %14d %14d %10s  %s\n", name, ca, cb, "", verdict)
		}
	}
	for _, rb := range b.Results {
		if findResult(a, rb.Workload, rb.Traced) == nil {
			outside("\n%s (traced=%v): OUTSIDE: missing from A\n", rb.Workload, rb.Traced)
		}
	}
	if inside {
		fmt.Fprintln(w, "\nevery metric of B is inside its bound of A")
	} else {
		fmt.Fprintln(w, "\nB is OUTSIDE a bound of A")
	}
	return inside, nil
}

// judge says whether vb is worse than va by more than bound × |va|, in
// the direction that counts as worse. A zero base has no share: from 0,
// any step the wrong way is outside.
func judge(va, vb float64, better string, bound float64) (string, bool) {
	worse := vb - va
	if better == "higher" {
		worse = va - vb
	}
	label := fmt.Sprintf("inside %.0f%% of A", bound*100)
	switch {
	case worse <= 0:
		return label, true
	case va == 0:
		return fmt.Sprintf("OUTSIDE: worse than A, which is 0; bound %.0f%%", bound*100), false
	case worse/math.Abs(va) > bound:
		return fmt.Sprintf("OUTSIDE: %.1f%% worse than A, bound %.0f%%", worse/math.Abs(va)*100, bound*100), false
	}
	return label, true
}

func errorRate(r *result) float64 {
	if r.Attempted == 0 {
		return 1 // nothing attempted is nothing shown to work
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// unionKeys is the sorted union of two maps' keys.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func findResult(e *envelope, workload string, traced bool) *result {
	for _, r := range e.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}
