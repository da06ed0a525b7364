package logical

import (
	"paradigms/internal/catalog"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/plan"
	"paradigms/internal/vector"
)

// This file is the vectorized lowering's surface for the pipeline
// driver (driver.go): the lowered pipeline structure — identical
// decomposition to internal/compiled's, since both recurse over the
// same optimized plan with the same deterministic column ordering —
// so the driver can run any individual pipeline vector-at-a-time while
// its neighbours run fused. The driver owns all shared execution state
// (dispatchers, hash tables, spill, barrier); this surface binds that
// state in and builds per-worker operator trees and sinks for one
// pipeline at a time.

// VecProgram is a query lowered onto the vectorized operator layer,
// ready for per-pipeline execution under the driver.
type VecProgram struct {
	pl   *Plan
	prog *program
}

// LowerVec lowers an optimized, fully bound logical plan onto the
// vectorized operator layer.
func LowerVec(pl *Plan) (*VecProgram, error) {
	prog, err := lower(pl)
	if err != nil {
		return nil, err
	}
	return &VecProgram{pl: pl, prog: prog}, nil
}

// NumPipes returns the pipeline count (build pipelines before their
// prober, the final pipeline last).
func (p *VecProgram) NumPipes() int { return len(p.prog.pipes) }

// PayWidth returns the payload-column count of build pipeline i.
func (p *VecProgram) PayWidth(i int) int { return len(p.prog.pipes[i].pays) }

// TableName returns the spine table of pipeline i.
func (p *VecProgram) TableName(i int) string { return p.prog.pipes[i].scan.Table.Name }

// TableRows returns the spine cardinality of pipeline i (the morsel
// space its dispatcher must cover).
func (p *VecProgram) TableRows(i int) int { return p.prog.pipes[i].scan.Table.Rel.Rows() }

// Bind attaches the driver-owned per-execution state to pipeline i:
// the shared morsel dispatcher and — for build pipelines — the shared
// hash table its probers will read (nil for the final pipeline). The
// same table is bound into the fused program so cross-engine probes
// read what either engine built.
func (p *VecProgram) Bind(i int, ht *hashtable.Table, disp *exec.Dispatcher) {
	p.prog.pipes[i].disp = disp
	p.prog.pipes[i].ht = ht
}

// VecWorker assembles one worker's operator trees and sinks over a
// VecProgram. A non-nil hash function overrides the probe/build hash
// of every join table (the hybrid policy standardizes on the compiled
// backend's Mix64 so tables interoperate across engines); aggregation
// spills keep the engine-default hash — they never cross engines,
// because the driver runs every worker of a pipeline on one engine.
type VecWorker struct {
	p *VecProgram
	e *plan.Exec
	w *worker
}

// NewWorker creates the per-worker assembly state.
func (p *VecProgram) NewWorker(e *plan.Exec, bufs *vector.Buffers, hash plan.HashFn) *VecWorker {
	return &VecWorker{
		p: p,
		e: e,
		w: &worker{bufs: bufs, colBuf: map[*pipeSpec]map[*catalog.Column][]uint64{}, hash: hash},
	}
}

// PipeRoot builds the operator tree of pipeline i for this worker,
// returning the root operator and the scan handle (for micro-adaptive
// vector retuning).
func (vw *VecWorker) PipeRoot(i int) (plan.Operator, *plan.Scan) {
	return vw.w.pipeRoot(vw.p.prog.pipes[i], vw.e)
}

// BuildSink creates the hash-build sink of build pipeline i for worker
// wid, with the worker's hash override applied. The driver runs the
// two-barrier publish itself (tw.BuildBarrier), not Sink.Finish.
func (vw *VecWorker) BuildSink(i, wid int) *plan.HashBuildSink {
	ps := vw.p.prog.pipes[i]
	key := vw.w.srcVecU64(ps, colSrc{base: ps.keyCol})
	pays := make([]plan.VecU64, len(ps.pays))
	for j, src := range ps.paySrc {
		pays[j] = vw.w.srcVecU64(ps, src)
	}
	sink := plan.NewHashBuild(vw.w.bufs, ps.ht, wid, key, pays...)
	sink.SetHash(vw.w.hash)
	return sink
}

// GroupBySink creates the final pipeline's keyed-aggregation sink
// (phase one) for worker wid, spilling into the driver-owned spill: an
// array over the key's domain when the plan chose one, else hashed.
func (vw *VecWorker) GroupBySink(wid int, spill *hashtable.Spill, htOps []hashtable.AggOp) *plan.GroupBySink {
	final := vw.p.prog.final
	agg := vw.p.pl.Agg
	key := vw.w.groupKey(final, agg)
	vals := make([]plan.VecI64, len(agg.Aggs))
	for j, s := range agg.Aggs {
		vals[j] = vw.w.aggInput(final, s)
	}
	if d := agg.Domain; d.Array() {
		return plan.NewArrayGroupBy(vw.w.bufs, spill, wid, htOps, d.Min, d.Span, key, vals...)
	}
	return plan.NewGroupBy(vw.w.bufs, spill, wid, htOps, key, vals...)
}

// GlobalSink creates the final pipeline's ungrouped-aggregation sink;
// the worker's partial lands in *out at Finish.
func (vw *VecWorker) GlobalSink(out *GlobalPartial) plan.Sink {
	return newGlobalAggSink(vw.w, vw.p.prog.final, vw.p.pl.Agg, out)
}

// CollectSink creates the final pipeline's projection sink, writing
// each row (item layout) into the row next hands out.
func (vw *VecWorker) CollectSink(next func() []int64) plan.Sink {
	sink := &collectSink{next: next}
	sink.exprs = make([]vec64, len(vw.p.pl.Proj))
	sink.vecs = make([][]int64, len(sink.exprs))
	for j, e := range vw.p.pl.Proj {
		sink.exprs[j] = vw.w.vecI64(vw.p.prog.final, e)
	}
	return sink
}
