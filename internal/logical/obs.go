package logical

import (
	"paradigms/internal/obs"
)

// This file is the planner's side of the execution-telemetry extension
// (internal/obs): it describes the pipeline decomposition — tables,
// build/final roles, probe counts — together with the planner's
// cardinality estimates, so EXPLAIN ANALYZE and the query log can put
// estimated next to observed cardinality per pipeline. It reads the
// pipeline decomposition both lowerings run (Decompose). The estimates
// reuse the exact selectivity heuristics the join-order optimizer runs
// on (selectivity in planner.go), so the drift a consumer computes is
// the drift the optimizer actually suffered.

// estPipeRows estimates the output cardinality of the pipeline rooted
// at n: the spine scan's rows scaled by the pushed-down filters'
// selectivities — observed history when the plan carries hints, static
// guesses otherwise — then, innermost join first, by each probe's
// retention ratio (the fraction of the build spine's key domain the
// build chain retains) and each residual equality a = b, which keeps
// 1/max(NDV(a), NDV(b)).
func estPipeRows(n Node, hints CardHints) float64 {
	j, ok := n.(*Join)
	if !ok {
		sc := n.(*Scan)
		return float64(sc.Table.Rel.Rows()) * scanSelectivity(sc, hints)
	}
	est := estPipeRows(j.Probe, hints)
	if domain := float64(j.Build.Spine().Table.Rel.Rows()); domain > 0 {
		est *= estPipeRows(j.Build, hints) / domain
	}
	for _, r := range j.Residuals {
		est /= float64(max(r[0].NDV(), r[1].NDV()))
	}
	return est
}

// scanSelectivity is estPipeRows's per-scan filter-selectivity
// estimate: the hinted (observed) value when available, the product of
// static per-predicate estimates otherwise — mirroring the planner's
// tableSelectivity so the telemetry's estimates are the optimizer's.
func scanSelectivity(sc *Scan, hints CardHints) float64 {
	if hints != nil {
		if s, ok := hints.ScanSelectivity(sc.Table.Name); ok {
			return s
		}
	}
	sel := 1.0
	for _, f := range sc.Filters {
		sel *= selectivity(f)
	}
	return sel
}

// describePipes records each pipeline's static shape and estimate into
// the collector, in execution order.
func describePipes(pl *Plan, pipes []*Pipeline, col *obs.Collector) {
	col.SetPipes(len(pipes))
	for i, p := range pipes {
		var root Node = p.Scan
		if len(p.Steps) > 0 {
			root = p.Steps[len(p.Steps)-1].Join
		}
		est := estPipeRows(root, pl.Hints)
		if p.Key == nil && pl.AlwaysFalse {
			est = 0
		}
		col.DescribePipe(i, p.Scan.Table.Name, p.Key != nil,
			int64(p.Scan.Table.Rel.Rows()), len(p.Steps), est)
	}
}
