package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is an experiment's results as strings: the one form every
// cmd/lbsbench output format (-format table, csv, markdown) is written
// from, so a value is formatted once and runs can be archived and diffed.
type Table struct {
	Name   string
	Header []string
	Rows   [][]string
}

// WriteCSV emits the table as CSV with a leading "# name" comment row.
func (t Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Name); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown emits the table as a GitHub-flavoured markdown table.
func (t Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteText emits the table as aligned columns for a terminal, followed
// by a blank line.
func (t Table) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

func itoa(v int) string   { return strconv.Itoa(v) }
func i64(v int64) string  { return strconv.FormatInt(v, 10) }
func f0(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Microseconds())/1000, 'f', 1, 64)
}

// Fig2Table converts density rows.
func Fig2Table(rows []Fig2Row) Table {
	t := Table{Name: "fig2-density", Header: []string{"cells", "max_per_cell", "mean_per_cell", "skew"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{itoa(r.Cells), itoa(r.MaxUsers), f2(r.MeanUsers), f2(r.SkewRatio)})
	}
	return t
}

// Fig3Table converts tree-shape rows.
func Fig3Table(rows []Fig3Row) Table {
	t := Table{Name: "fig3-tree-shape", Header: []string{"users", "nodes", "leaves", "max_height", "max_leaf_count", "build_ms"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(r.N), itoa(r.Nodes), itoa(r.Leaves), itoa(r.MaxHeight),
			itoa(r.MaxLeafCount), ms(r.BuildTime),
		})
	}
	return t
}

// Fig4aTable converts bulk-time rows.
func Fig4aTable(rows []Fig4aRow) Table {
	t := Table{Name: "fig4a-bulk-time", Header: []string{"users", "servers", "wall_ms", "critical_path_ms", "cost"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(r.N), itoa(r.Servers), ms(r.Elapsed), ms(r.CriticalPath), i64(r.Cost),
		})
	}
	return t
}

// Fig4bTable converts vary-k rows.
func Fig4bTable(rows []Fig4bRow) Table {
	t := Table{Name: "fig4b-vary-k", Header: []string{"k", "time_ms", "cost"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{itoa(r.K), ms(r.Elapsed), i64(r.Cost)})
	}
	return t
}

// Fig5aTable converts cost-overhead rows. Column keys follow the engine
// registry names (bulkdp-binary is the paper's policy-aware optimum), so
// BENCH output keys stay stable as engines are added.
func Fig5aTable(rows []Fig5aRow) Table {
	t := Table{Name: "fig5a-cost-overhead", Header: []string{
		"users", "casper_avg_area", "pub_avg_area", "puq_avg_area",
		"bulkdp-binary_avg_area", "bulkdp-binary_over_casper", "bulkdp-binary_over_puq",
	}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(r.N), f0(r.Casper), f0(r.PUB), f0(r.PUQ),
			f0(r.PolicyAware), f2(r.RatioToCasper), f2(r.RatioToPUQ),
		})
	}
	return t
}

// Fig5bTable converts incremental-maintenance rows.
func Fig5bTable(rows []Fig5bRow) Table {
	t := Table{Name: "fig5b-incremental", Header: []string{"move_percent", "incremental_ms", "bulk_ms", "rows_recomputed"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f2(r.MovePercent), ms(r.Incremental), ms(r.Bulk), itoa(r.RowsRecomputed)})
	}
	return t
}

// ParallelTable converts utility-loss rows.
func ParallelTable(rows []ParallelRow) Table {
	t := Table{Name: "vi-d-parallel-utility", Header: []string{"jurisdictions", "cost", "divergence_percent"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{itoa(r.Jurisdictions), i64(r.Cost), f3(r.DivergencePct)})
	}
	return t
}

// UtilityTable converts answer-size rows; the policy column holds engine
// registry names.
func UtilityTable(rows []UtilityRow) Table {
	t := Table{Name: "utility-answer-size", Header: []string{"engine", "avg_cloak_area", "avg_answer_size"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Policy, f0(r.AvgCloakArea), f2(r.AvgAnswerSize)})
	}
	return t
}

// EnginesTable converts cross-engine sweep rows, keyed by registry name.
func EnginesTable(rows []EngineRow) Table {
	t := Table{Name: "engine-sweep", Header: []string{
		"engine", "policy_aware", "avg_area", "cost", "time_ms",
		"min_aware_anon", "min_unaware_anon", "verified",
	}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%t", r.PolicyAware), f0(r.AvgArea), i64(r.Cost),
			ms(r.Elapsed), itoa(r.MinAware), itoa(r.MinUnaware), fmt.Sprintf("%t", r.OK),
		})
	}
	return t
}

// HilbertTable converts the policy-aware-safe comparison rows.
func HilbertTable(rows []HilbertRow) Table {
	t := Table{Name: "hilbert-comparison", Header: []string{
		"users", "optimal_avg_area", "hilbert_avg_area", "findmbc_avg_area",
		"optimal_min_anon", "hilbert_min_anon", "findmbc_aware_anon",
	}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(r.N), f0(r.OptimalAvgArea), f0(r.HilbertAvgArea), f0(r.FindMBCAvgArea),
			itoa(r.OptimalMinAnon), itoa(r.HilbertMinAnon), itoa(r.FindMBCAwareAnon),
		})
	}
	return t
}

// TrajectoryTable converts erosion rows.
func TrajectoryTable(rows []TrajectoryRow) Table {
	t := Table{Name: "trajectory-erosion", Header: []string{"snapshot", "per_snapshot_anonymity", "composed_anonymity"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{itoa(r.Snapshot), itoa(r.PerSnapshot), itoa(r.Composed)})
	}
	return t
}
