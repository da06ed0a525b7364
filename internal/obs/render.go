package obs

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"
)

// FormatPipes renders the per-pipeline estimated-vs-observed table of
// EXPLAIN ANALYZE: one row per pipeline in lowering order, the
// planner's cardinality estimate next to the observed output so drift
// is visible at a glance.
func FormatPipes(pipes []PipeStat) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "pipe\ttable\trole\teng\trows_in\test_rows\trows_out\tsel\tht_rows\tkey_bits\tlayout\tvec\tworkers\ttime")
	for _, p := range pipes {
		role := "final"
		if p.Build {
			role = "build"
		}
		eng := p.Engine
		if eng == "" {
			eng = "-"
		}
		vec := "-"
		if p.VecSize > 0 {
			vec = fmt.Sprintf("%d", p.VecSize)
		}
		ht, kb, layout := "-", "-", "-"
		if p.Build {
			ht, kb = fmt.Sprintf("%d", p.HTRows), fmt.Sprintf("%d", p.KeyBits)
		}
		if p.Layout != "" {
			layout = p.Layout
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%d\t%.0f\t%d\t%.4f\t%s\t%s\t%s\t%s\t%d\t%s\n",
			p.Index, p.Table, role, eng, p.RowsIn, p.EstRows, p.RowsOut,
			p.Selectivity(), ht, kb, layout, vec, p.Workers, formatNanos(p.Nanos))
	}
	w.Flush()
	return b.String()
}

// formatNanos renders a pipeline wall time compactly (µs resolution —
// finer is noise at morsel granularity).
func formatNanos(n int64) string {
	d := time.Duration(n).Round(time.Microsecond)
	return d.String()
}
