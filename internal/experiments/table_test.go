package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

func sampleTable() Table {
	return Table{
		Name:   "sample",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x"}, {"2", "y"}},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "# sample" {
		t.Fatalf("missing name comment: %q", lines[0])
	}
	rows, err := csv.NewReader(strings.NewReader(strings.Join(lines[1:], "\n"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != "a" || rows[2][1] != "y" {
		t.Fatalf("csv rows = %v", rows)
	}
}

func TestWriteMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### sample", "| a | b |", "| --- | --- |", "| 2 | y |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// Columns are padded to a common width; a blank line ends the table.
	if got, want := buf.String(), "a  b\n1  x\n2  y\n\n"; got != want {
		t.Fatalf("text = %q, want %q", got, want)
	}
}

func TestConvertersShapeMatchesHeaders(t *testing.T) {
	tables := []Table{
		Fig2Table([]Fig2Row{{Cells: 8, MaxUsers: 10, MeanUsers: 2, SkewRatio: 5}}),
		Fig3Table([]Fig3Row{{N: 1, Nodes: 2, Leaves: 1, MaxHeight: 3, MaxLeafCount: 4, BuildTime: time.Millisecond}}),
		Fig4aTable([]Fig4aRow{{N: 1, Servers: 2, Elapsed: time.Second, CriticalPath: time.Millisecond, Cost: 5}}),
		Fig4bTable([]Fig4bRow{{K: 5, Elapsed: time.Second, Cost: 7}}),
		Fig5aTable([]Fig5aRow{{N: 1, Casper: 1, PUB: 2, PUQ: 3, PolicyAware: 4, RatioToCasper: 4, RatioToPUQ: 1.3}}),
		Fig5bTable([]Fig5bRow{{MovePercent: 1, Incremental: time.Second, Bulk: time.Second, RowsRecomputed: 9}}),
		ParallelTable([]ParallelRow{{Jurisdictions: 4, Cost: 100, DivergencePct: 0.5}}),
		UtilityTable([]UtilityRow{{Policy: "x", AvgCloakArea: 1, AvgAnswerSize: 2}}),
		HilbertTable([]HilbertRow{{N: 1, OptimalAvgArea: 1, HilbertAvgArea: 2, FindMBCAvgArea: 3, OptimalMinAnon: 4, HilbertMinAnon: 5, FindMBCAwareAnon: 1}}),
		TrajectoryTable([]TrajectoryRow{{Snapshot: 0, PerSnapshot: 10, Composed: 5}}),
		AdaptiveTable([]AdaptiveRow{{N: 1, StaticAvgArea: 2, AdaptiveAvg: 1, CostRatio: 0.5, StaticElapsed: time.Second, AdaptiveElapse: time.Second}}),
		EnginesTable([]EngineRow{{Name: "x", PolicyAware: true, AvgArea: 1, Cost: 2, Elapsed: time.Second, MinAware: 3, MinUnaware: 4, OK: true}}),
		BulkDPBenchTable(&BulkDPBench{Sweep: []BulkDPSweepRow{{Workers: 1, NsPerOp: 10, NodesPerSec: 5, Speedup: 1}}}),
	}
	for _, tbl := range tables {
		if tbl.Name == "" {
			t.Fatal("unnamed table")
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("table %s: row width %d != header %d", tbl.Name, len(row), len(tbl.Header))
			}
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatalf("table %s csv: %v", tbl.Name, err)
		}
		buf.Reset()
		if err := tbl.WriteMarkdown(&buf); err != nil {
			t.Fatalf("table %s markdown: %v", tbl.Name, err)
		}
		buf.Reset()
		if err := tbl.WriteText(&buf); err != nil {
			t.Fatalf("table %s text: %v", tbl.Name, err)
		}
	}
}
