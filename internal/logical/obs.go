package logical

import (
	"paradigms/internal/obs"
)

// This file is the planner's side of the execution-telemetry extension
// (internal/obs): it describes the pipeline decomposition — tables,
// build/final roles, probe counts — together with the planner's
// cardinality estimates, so EXPLAIN ANALYZE and the query log can put
// estimated next to observed cardinality per pipeline. It walks the
// optimized plan the way both lowerings do (one pipeline per node,
// build chains before their prober, the final pipeline last), so the
// driver describes a run without lowering anything. The estimates
// reuse the exact selectivity heuristics the join-order optimizer runs
// on (selectivity in planner.go), so the drift a consumer computes is
// the drift the optimizer actually suffered.

// estPipeRows estimates the output cardinality of the pipeline rooted
// at n: the spine scan's rows scaled by the pushed-down filters'
// selectivities — observed history when the plan carries hints, static
// guesses otherwise — then by each probe's retention ratio (the
// fraction of the build spine's key domain the build chain retains)
// and each residual equality a = b, which keeps 1/max(NDV(a), NDV(b)).
func estPipeRows(n Node, hints CardHints) float64 {
	spine := n.Spine()
	est := float64(spine.Table.Rel.Rows())
	est *= scanSelectivity(spine, hints)
	for _, j := range probeJoins(n) {
		domain := float64(j.Build.Spine().Table.Rel.Rows())
		if domain > 0 {
			est *= estPipeRows(j.Build, hints) / domain
		}
		for _, r := range j.Residuals {
			est /= float64(max(r[0].NDV(), r[1].NDV()))
		}
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
// the collector, in lowering order.
func describePipes(pl *Plan, col *obs.Collector) {
	var pipes []Node
	var walk func(n Node)
	walk = func(n Node) {
		for _, j := range probeJoins(n) {
			walk(j.Build)
		}
		pipes = append(pipes, n)
	}
	walk(pl.Root)
	col.SetPipes(len(pipes))
	for i, n := range pipes {
		est := estPipeRows(n, pl.Hints)
		if n == pl.Root && pl.AlwaysFalse {
			est = 0
		}
		spine := n.Spine()
		col.DescribePipe(i, spine.Table.Name, n != pl.Root,
			int64(spine.Table.Rel.Rows()), len(probeJoins(n)), est)
	}
}
