package logical

import (
	"paradigms/internal/hashtable"
	"paradigms/internal/plan"
	"paradigms/internal/vector"
)

// This file is the vectorized lowering's surface for the pipeline
// driver (driver.go): the plan's pipelines (Decompose) with the
// per-worker assembly of each one from vectorized operators, so the
// driver can run any individual pipeline vector-at-a-time while its
// neighbours run fused. The driver owns all shared execution state
// (dispatchers, hash tables, spill, barrier) and binds it into the
// pipelines; this surface builds per-worker operator trees and sinks
// for one pipeline at a time.

// VecProgram is a query lowered onto the vectorized operator layer,
// ready for per-pipeline execution under the driver.
type VecProgram struct {
	pl    *Plan
	pipes []*Pipeline
	ex    Exprs
}

// final is the pipeline that feeds the query's sink.
func (p *VecProgram) final() *Pipeline { return p.pipes[len(p.pipes)-1] }

// LowerVec lowers an optimized, fully bound logical plan onto the
// vectorized operator layer.
func LowerVec(pl *Plan) (*VecProgram, error) {
	pipes := Decompose(pl)
	ex, err := BindExprs(pl, pipes)
	if err != nil {
		return nil, err
	}
	return LowerVecPipes(pl, pipes, ex), nil
}

// LowerVecPipes is LowerVec over pl's decomposition pipes and their
// bound expressions ex, which a fused lowering may share (the hybrid
// lowers both from one).
func LowerVecPipes(pl *Plan, pipes []*Pipeline, ex Exprs) *VecProgram {
	return &VecProgram{pl: pl, pipes: pipes, ex: ex}
}

// Pipelines returns the decomposition the program was lowered from.
func (p *VecProgram) Pipelines() []*Pipeline { return p.pipes }

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
		w: &worker{bufs: bufs, colBuf: map[*Pipeline][][]uint64{}, hash: hash},
	}
}

// PipeRoot builds the operator tree of pipeline i for this worker,
// returning the root operator and the scan handle (for micro-adaptive
// vector retuning).
func (vw *VecWorker) PipeRoot(i int) (plan.Operator, *plan.Scan) {
	return vw.w.pipeRoot(vw.p.pipes[i], vw.e, vw.p.ex.Resid(i))
}

// BuildSink creates the hash-build sink of build pipeline i for worker
// wid, with the worker's hash override applied. The driver runs the
// two-barrier publish itself (tw.BuildBarrier), not Sink.Finish.
func (vw *VecWorker) BuildSink(i, wid int) *plan.HashBuildSink {
	ps := vw.p.pipes[i]
	key := vw.w.srcVecU64(ps, ps.Key)
	pays := make([]plan.VecU64, len(ps.Pays))
	for j, c := range ps.Pays {
		pays[j] = vw.w.srcVecU64(ps, c)
	}
	sink := plan.NewHashBuild(vw.w.bufs, ps.ht, wid, key, pays...)
	sink.SetHash(vw.w.hash)
	return sink
}

// GroupBySink creates the final pipeline's keyed-aggregation sink
// (phase one) for worker wid, spilling into the driver-owned spill: an
// array over the key's domain when the plan chose one, else hashed.
func (vw *VecWorker) GroupBySink(wid int, spill *hashtable.Spill, htOps []hashtable.AggOp) *plan.GroupBySink {
	final := vw.p.final()
	agg := vw.p.pl.Agg
	key := vw.w.groupKey(final, agg)
	vals := make([]plan.VecI64, len(agg.Aggs))
	for j, s := range agg.Aggs {
		vals[j] = vw.w.aggInput(final, j, s, vw.p.ex.Sink)
	}
	if d := agg.Domain; d.Array() {
		return plan.NewArrayGroupBy(vw.w.bufs, spill, wid, htOps, d.Min, d.Span, key, vals...)
	}
	return plan.NewGroupBy(vw.w.bufs, spill, wid, htOps, key, vals...)
}

// GlobalSink creates the final pipeline's ungrouped-aggregation sink;
// the worker's partial lands in *out at Finish.
func (vw *VecWorker) GlobalSink(out *GlobalPartial) plan.Sink {
	return newGlobalAggSink(vw.w, vw.p.final(), vw.p.pl.Agg, vw.p.ex.Sink, out)
}

// CollectSink creates the final pipeline's projection sink, writing
// each row (item layout) into the row next hands out.
func (vw *VecWorker) CollectSink(next func() []int64) plan.Sink {
	sink := &collectSink{next: next}
	sink.exprs = make([]vecFn, len(vw.p.ex.Sink))
	sink.vecs = make([][]int64, len(sink.exprs))
	for j, item := range vw.p.ex.Sink {
		sink.exprs[j] = vw.w.vecProg(vw.p.final(), item)
	}
	return sink
}
