package compiled

import (
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/logical"
)

// This file is the compiled backend's surface for the shared pipeline
// driver (logical.Drive): the lowered pipeline structure — the same
// decomposition internal/logical's vectorized lowering produces — so
// the driver can run any individual pipeline as a fused loop, alone
// (typer) or while its neighbours run vectorized (hybrid). The driver
// owns all shared execution state (dispatchers, hash tables, spill,
// barrier); this surface only binds that state in and runs one
// pipeline for one worker.

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
	pr, err := lower(pl)
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

// NumPipes returns the pipeline count (build pipelines before their
// prober, the final pipeline last — the order execution must follow).
func (p *Program) NumPipes() int { return len(p.pr.pipes) }

// IsBuild reports whether pipeline i terminates in a hash-table build.
func (p *Program) IsBuild(i int) bool { return p.pr.pipes[i].keyCol != nil }

// PayWidth returns the payload-column count of build pipeline i (its
// hash table holds 1+PayWidth words per row).
func (p *Program) PayWidth(i int) int { return len(p.pr.pipes[i].pays) }

// TableName returns the spine table of pipeline i.
func (p *Program) TableName(i int) string { return p.pr.pipes[i].scan.Table.Name }

// TableRows returns the spine cardinality of pipeline i (the morsel
// space its dispatcher must cover).
func (p *Program) TableRows(i int) int { return p.pr.pipes[i].scan.Table.Rows() }

// NumProbes returns the hash-probe count of pipeline i.
func (p *Program) NumProbes(i int) int { return len(p.pr.pipes[i].steps) }

// NumFilters returns the filter-conjunct count of pipeline i (range
// bounds, string equalities, and generic predicates).
func (p *Program) NumFilters(i int) int {
	f := &p.pr.pipes[i].filt
	return len(f.b32) + len(f.b64) + len(f.strs) + len(f.preds)
}

// Bind attaches the driver-owned per-execution state to pipeline i: the
// shared morsel dispatcher, and — for build pipelines — the shared hash
// table its probers will read (pass nil for the final pipeline).
func (p *Program) Bind(i int, ht *hashtable.Table, disp *exec.Dispatcher) {
	p.pr.pipes[i].disp = disp
	p.pr.pipes[i].ht = ht
}

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
