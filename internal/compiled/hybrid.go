package compiled

import (
	"paradigms/internal/hashtable"
	"paradigms/internal/logical"
)

// This file is the compiled backend's surface for the shared pipeline
// driver (logical.Drive): the plan's pipelines (logical.Decompose),
// each compiled to a fused loop, so the driver can run any individual
// pipeline fused, alone (typer) or while its neighbours run vectorized
// (hybrid). The driver owns all shared execution state (dispatchers,
// hash tables, spill, barrier) and binds it into the pipelines; this
// surface runs one pipeline for one worker.

// Program is a query lowered to fused pipelines with the final
// pipeline's sink closures pre-compiled: the logical.FusedProgram the
// driver runs.
type Program struct {
	pr     *prog
	agg    *logical.Aggregate
	specs  []groupSpec
	keyGet u64Fn
	items  []scalarFn
}

var _ logical.FusedProgram = (*Program)(nil)

// LowerProgram lowers an optimized, fully bound logical plan to fused
// pipelines. All sink expressions compile here, on the caller, so
// unsupported shapes surface as errors before any worker starts.
func LowerProgram(pl *logical.Plan) (*Program, error) {
	return LowerPipes(pl, logical.Decompose(pl))
}

// LowerPipes is LowerProgram over pl's decomposition pipes, which a
// vectorized lowering may share (the hybrid lowers both from one).
func LowerPipes(pl *logical.Plan, pipes []*logical.Pipeline) (*Program, error) {
	pr, err := lower(pl, pipes)
	if err != nil {
		return nil, err
	}
	p := &Program{pr: pr, agg: pl.Agg}
	final := pr.final
	switch {
	case pl.Agg != nil && len(pl.Agg.Keys) > 0:
		if p.specs, err = final.compileAggs(pl.Agg); err != nil {
			return nil, err
		}
		if p.keyGet, err = final.groupKeyGet(pl.Agg); err != nil {
			return nil, err
		}
	case pl.Agg != nil:
		if p.specs, err = final.compileAggs(pl.Agg); err != nil {
			return nil, err
		}
	default:
		p.items = make([]scalarFn, len(pl.Proj))
		for j, e := range pl.Proj {
			if p.items[j], err = final.scalar(e); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// Pipelines returns the decomposition the program was lowered from.
func (p *Program) Pipelines() []*logical.Pipeline { return p.pr.lps }

// RunBuild drains build pipeline i into worker wid's shard of its bound
// hash table. Barrier-free: the driver runs the shared two-barrier
// publish (Prepare → InsertShard) afterwards.
func (p *Program) RunBuild(i, wid int) { p.pr.pipes[i].runBuild(wid) }

// RunGrouped runs the final pipeline's phase-one keyed aggregation for
// one worker, spilling partial groups into the shared spill (row layout
// [hash, key, aggs...], identical to the vectorized sink's). A non-nil
// nOut counts the rows reaching the sink (telemetry-instrumented
// executions only).
func (p *Program) RunGrouped(wid int, spill *hashtable.Spill, nOut *int64) {
	p.pr.final.runGrouped(wid, p.specs, p.keyGet, p.agg.Domain, spill, nOut)
}

// RunGlobal runs the final pipeline's ungrouped aggregation for one
// worker, returning its partial for logical.MergeGlobal.
func (p *Program) RunGlobal(wid int) logical.GlobalPartial {
	return p.pr.final.runGlobal(wid, p.specs)
}

// RunProject writes the final pipeline's projection rows for one worker
// into the rows next hands out.
func (p *Program) RunProject(wid int, next func() []int64) {
	p.pr.final.runProject(p.items, next)
}
