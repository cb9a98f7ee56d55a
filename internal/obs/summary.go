package obs

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// PhaseStat aggregates every finished span of one name.
type PhaseStat struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Total time.Duration `json:"totalNs"`
	Min   time.Duration `json:"minNs"`
	Max   time.Duration `json:"maxNs"`
	Mean  time.Duration `json:"meanNs"`
}

// PhaseSummary returns per-phase timing statistics, heaviest total first.
// It is maintained independently of span retention, so it works on
// tracers running with KeepSpans(false).
func (t *Tracer) PhaseSummary() []PhaseStat {
	agg := *t.agg.Load()
	stats := make([]PhaseStat, 0, len(agg))
	for name, a := range agg {
		// count first: it is bumped last, so what is read after it covers
		// at least that many spans. A name whose first span is still
		// being recorded has none yet.
		n := a.count.Load()
		if n == 0 {
			continue
		}
		total := time.Duration(a.total.Load())
		stats = append(stats, PhaseStat{
			Name: name, Count: n, Total: total,
			Min: time.Duration(a.min.Load()), Max: time.Duration(a.max.Load()), Mean: total / time.Duration(n),
		})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Total != stats[j].Total {
			return stats[i].Total > stats[j].Total
		}
		return stats[i].Name < stats[j].Name
	})
	return stats
}

// WritePhaseTable renders the phase summary as an aligned text table, the
// in-process per-phase breakdown the Section VI evaluation tables are
// built from.
func (t *Tracer) WritePhaseTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tcount\ttotal\tmean\tmin\tmax")
	for _, s := range t.PhaseSummary() {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\n",
			s.Name, s.Count,
			s.Total.Round(time.Microsecond), s.Mean.Round(time.Microsecond),
			s.Min.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	}
	return tw.Flush()
}
