// Package plan is the composable physical-operator layer of the
// Tectorwise engine: queries are assembled from reusable vector-at-a-time
// operators instead of hand-rolled per-query pipeline monoliths.
//
// The layer realizes the paper's description of a vectorized engine as an
// *interpreter over type-specialized primitives* (§2.1): every operator
// is control logic only — Scan serves morsel-sized windows as vectors,
// FilterChain runs a selection cascade (§5.1), HashProbe runs the
// find-candidates / compare-keys / advance loop of Figure 2b, Project
// computes derived vectors, and the sinks (HashBuildSink, GroupBySink,
// ProbeEmitSink) terminate pipelines — while all data-touching work
// happens in internal/tw's primitives. Operators exchange a Batch
// (window + selection vector) and communicate derived vectors through
// per-worker buffers allocated once at plan-build time, so execution is
// allocation free on the hot path.
//
// Parallelism and cancellation are handled once, here, rather than per
// query: Exec owns the morsel dispatchers (bound to the query's context,
// §6.1 morsel-driven scheduling) and the worker barrier, and drives each
// worker's stage list with the shared build-barrier protocol between
// pipeline breakers. A query function therefore only declares shared
// state (hash tables, spill partitions), assembles per-worker operator
// trees, and merges per-worker results.
package plan

import (
	"context"
	"runtime"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/storage"
	"paradigms/internal/tw"
	"paradigms/internal/vector"
)

// Exec is the per-query plan executor: it owns the query's context (one
// cancellation point for every dispatcher it creates), the normalized
// worker count and vector size, and the barrier the stages synchronize
// on.
type Exec struct {
	ctx context.Context
	bar *exec.Barrier

	// Workers is the normalized worker count; Vec the vector size.
	Workers int
	Vec     int
}

// NewExec creates a plan executor for callers outside this package — the
// SQL lowering pass (internal/logical) assembles ad-hoc operator trees
// with exactly the machinery the hand-written plans use. It sizes the
// executor to its input: rows is the largest relation any pipeline
// scans, so a query gets no more workers than that scan has morsels
// (at the morsel size of ctx's dispatchers) and no vector longer than
// the scan.
func NewExec(ctx context.Context, nWorkers, vecSize, rows int) *Exec {
	rows = max(rows, 1)
	m := exec.MorselSize(ctx)
	w, v := normalize(nWorkers, vecSize)
	return newExec(ctx, min(w, (rows+m-1)/m), min(v, rows))
}

// newExec creates the executor with normalized knobs, sized for any
// input (the hand-written plans).
func newExec(ctx context.Context, nWorkers, vecSize int) *Exec {
	w, v := normalize(nWorkers, vecSize)
	return &Exec{ctx: ctx, bar: exec.NewBarrier(w), Workers: w, Vec: v}
}

// normalize resolves the execution knobs: nWorkers <= 0 means
// GOMAXPROCS, capped at one shard per worker of every shared hash
// table; vecSize <= 0 means vector.DefaultSize.
func normalize(nWorkers, vecSize int) (int, int) {
	w := nWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	v := vecSize
	if v <= 0 {
		v = vector.DefaultSize
	}
	return min(w, hashtable.MaxShards), v
}

// ScanDisp creates the shared morsel dispatcher of a relation scan,
// bound to the query's context.
func (e *Exec) ScanDisp(rel *storage.Relation) *exec.Dispatcher {
	return exec.NewDispatcherCtx(e.ctx, rel.Rows(), 0)
}

// PartDisp creates a dispatcher handing out aggregation spill partitions
// one at a time.
func (e *Exec) PartDisp(parts int) *exec.Dispatcher {
	return exec.NewDispatcherCtx(e.ctx, parts, 1)
}

// NewScan creates a worker's scan operator over a shared dispatcher.
func (e *Exec) NewScan(disp *exec.Dispatcher) *Scan {
	return &Scan{scan: tw.NewScan(disp, e.Vec)}
}

// Wait crosses the plan barrier; the last worker to arrive runs action.
// Stages use it for synchronization the sinks don't already provide
// (e.g. Q18's single-threaded HAVING-table build between pipelines).
func (e *Exec) Wait(action func()) { e.bar.Wait(action) }

// Stage is one pipeline of a worker's plan: either a vector pipeline
// (Root pulled until exhaustion, batches pushed into Sink, then
// Sink.Finish for flush + synchronization) or a raw Run step (partition
// merges, barrier actions).
type Stage struct {
	Root Operator
	Sink Sink
	Run  func(wid int)
}

// Run executes the plan: build is called once per worker with the
// worker's id and private buffer arena and returns the worker's stages,
// which are then driven in order. Cancellation needs no per-query code:
// every dispatcher made by this executor observes ctx, so canceled scans
// report exhaustion and all workers still reach every barrier.
func (e *Exec) Run(build func(wid int, bufs *vector.Buffers) []Stage) {
	exec.Parallel(e.Workers, func(wid int) {
		bufs := vector.NewBuffers(e.Vec)
		for _, st := range build(wid, bufs) {
			switch {
			case st.Root != nil:
				var b Batch
				for st.Root.Next(&b) {
					st.Sink.Consume(&b)
				}
				st.Sink.Finish(e.bar, wid)
			case st.Run != nil:
				st.Run(wid)
			}
		}
	})
}
