package logical

import (
	"context"
	"fmt"
	"time"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/obs"
	"paradigms/internal/plan"
	"paradigms/internal/tw"
	"paradigms/internal/vector"
)

// This file is the one SQL executor. The paper's method (§3) is that
// Typer and Tectorwise share everything except the inner loop: one
// hash table, one morsel framework, one parallel aggregation. Drive
// owns all of that — hash-table and dispatcher allocation, the build
// barrier, the keyed / global / projection switch, the spill-partition
// merge, stream buffers, Partial assembly, the telemetry merge and
// FinalizeRows — and runs every pipeline through the per-pipeline,
// per-worker inner loops the two lowerings expose (FusedProgram,
// VecProgram). The three engines are three Policy values: typer fuses
// every pipeline, tectorwise vectorizes every pipeline, hybrid mixes
// them per pipeline (internal/hybrid).

// PipeEngine selects the backend of one pipeline.
type PipeEngine uint8

const (
	// PipeFused runs a pipeline as internal/compiled's fused
	// tuple-at-a-time loop.
	PipeFused PipeEngine = iota
	// PipeVectorized runs a pipeline on internal/plan's vectorized
	// operators.
	PipeVectorized
)

// String renders the one-letter engine tag used in assignment suffixes
// and telemetry ("t" for the fused Typer-style backend, "v" for
// vectorized).
func (e PipeEngine) String() string {
	if e == PipeFused {
		return "t"
	}
	return "v"
}

// FusedProgram is the fused backend's per-pipeline surface
// (*compiled.Program; an interface only because internal/compiled
// imports this package). Pipeline i is Pipelines()[i], the plan's
// decomposition (Decompose): build pipelines before their prober, the
// final pipeline last.
type FusedProgram interface {
	// Pipelines returns the decomposition the program was lowered from.
	Pipelines() []*Pipeline
	// RunBuild drains build pipeline i into worker wid's shard of its
	// bound table (the driver runs the two-barrier publish).
	RunBuild(i, wid int)
	// RunGrouped is phase one of the keyed aggregation for one worker,
	// spilling rows [hash, key, aggs...]; a non-nil nOut counts the rows
	// reaching the sink.
	RunGrouped(wid int, spill *hashtable.Spill, nOut *int64)
	RunGlobal(wid int) GlobalPartial
	// RunProject writes every projection row of one worker into the
	// row next hands out (one call per row, item layout).
	RunProject(wid int, next func() []int64)
}

// Policy is everything that distinguishes one engine from another.
type Policy struct {
	// Fused and Vec are the plan's two lowerings; a policy that never
	// runs a pipeline on a backend leaves that backend's program nil
	// (typer never lowers or allocates anything vectorized). A policy
	// that sets both lowers them from one decomposition.
	Fused FusedProgram
	Vec   *VecProgram
	// Assign picks each pipeline's backend. Nil means every pipeline
	// runs on the one program given.
	Assign []PipeEngine
	// JoinHash hashes the join tables of vectorized pipelines (nil =
	// the vectorized default). A mixed assignment must set the fused
	// backend's hash so either engine probes what the other built.
	JoinHash plan.HashFn
	// VecSize is the vector size the vectorized pipelines' buffers are
	// allocated at and, with a nil Drain, run at (0 = default); the
	// driver clamps it to the query's largest scan.
	VecSize int
	// Drain, if non-nil, drives a vectorized pipeline in place of the
	// fixed-size loop and returns the vector size it settled on
	// (hybrid's micro-adaptive sizing; sizes must stay <= vec, the size
	// the buffers were allocated at).
	Drain func(root plan.Operator, scan *plan.Scan, sink plan.Sink, vec int) int
}

// Mode says what a run does with its rows: the zero value materializes
// a Result.
type Mode struct {
	// Sink, if non-nil, streams the result: SetCols before execution,
	// then batches of Chunk rows (0 = DefaultStreamChunk). Streamable
	// plans flush rows as they are produced — projection rows per
	// morsel, grouped rows per merged spill partition; materializing
	// shapes (ORDER BY / HAVING / LIMIT / global aggregates) stream
	// their finalized rows. A sink error aborts the query and is
	// returned.
	Sink  RowSink
	Chunk int
	// Partial stops before the finalization tail and returns the
	// shard-local state for MergePartials.
	Partial bool
}

// Output is what a run produced.
type Output struct {
	// Result is the materialized result (nil when streaming or partial).
	Result *Result
	// Partial is the pre-finalization state of a Partial run.
	Partial *Partial
	// Vec is the vector size each vectorized pipeline ran at (the mode
	// across workers; 0 for fused pipelines).
	Vec []int
}

// Drive runs a fully bound plan (BindArgs) under an engine policy. A
// canceled context drains the workers within one morsel; materialized
// and partial output of a canceled run is for the caller to discard,
// a streamed run returns ctx.Err().
func Drive(ctx context.Context, pl *Plan, workers int, pol Policy, mode Mode) (Output, error) {
	if len(pl.Params) > 0 {
		return Output{}, fmt.Errorf("logical: statement has %d unbound parameter(s); bind them with BindArgs first", len(pl.Params))
	}
	if mode.Sink == nil {
		return drive(ctx, pl, workers, pol, nil, 0, mode.Partial)
	}
	if err := mode.Sink.SetCols(pl.Cols); err != nil {
		return Output{}, err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := newStreamer(mode.Sink, cancel)
	if pl.Streamable() {
		out, err := drive(sctx, pl, workers, pol, st, mode.Chunk, false)
		return out, firstErr(err, st.Err(), ctx.Err())
	}
	// Materializing shape: run to completion, then stream the
	// finalized rows in chunks.
	out, err := drive(ctx, pl, workers, pol, nil, 0, false)
	if err = firstErr(err, ctx.Err()); err != nil {
		return Output{}, err
	}
	rows := out.Result.Rows
	out.Result = nil
	return out, streamChunks(ctx, st, rows, mode.Chunk)
}

// workerStat is one worker's share of one pipeline's telemetry. Each
// worker writes only its own cells.
type workerStat struct {
	rows, batches, nanos int64
	vec                  int
}

// drive is the body of Drive: with a stream it flushes row batches as
// they are produced (the plan must be Streamable), with partial it
// assembles the pre-finalization state, otherwise it finalizes.
func drive(ctx context.Context, pl *Plan, workers int, pol Policy, stream *streamer, chunk int, partial bool) (Output, error) {
	fp, vp := pol.Fused, pol.Vec
	var pipes []*Pipeline
	if fp != nil {
		pipes = fp.Pipelines()
	} else {
		pipes = vp.pipes
	}
	n := len(pipes)
	assign := pol.Assign
	if assign == nil {
		assign = make([]PipeEngine, n) // all PipeFused
		if fp == nil {
			for i := range assign {
				assign[i] = PipeVectorized
			}
		}
	}
	fused := func(i int) bool { return assign[i] == PipeFused }

	col := obs.FromContext(ctx)
	if col != nil {
		describePipes(pl, pipes, col)
	}

	// Every per-query allocation is sized to the input: no more workers
	// than the largest scan has morsels, no vector longer than it.
	largest := 0
	for _, p := range pipes {
		largest = max(largest, p.Scan.Table.Rows())
	}
	e := plan.NewExec(ctx, workers, pol.VecSize, largest)
	w := e.Workers // normalized and sized by NewExec
	fi := n - 1    // the final pipeline is last; all others build
	for _, p := range pipes {
		p.disp = exec.NewDispatcherCtx(ctx, p.Scan.Table.Rows(), 0)
		if p.Key != nil {
			p.ht = hashtable.New(1+len(p.Pays), w)
		}
	}

	agg := pl.Agg
	keyed := agg != nil && len(agg.Keys) > 0
	global := agg != nil && len(agg.Keys) == 0

	var (
		spill    *hashtable.Spill
		partDisp *exec.Dispatcher
		htOps    []hashtable.AggOp
		partials []GlobalPartial
		// bufs holds each worker's output rows (projections and groups;
		// a global aggregate has partials instead).
		bufs []*rowBuf
	)
	switch {
	case keyed:
		htOps = make([]hashtable.AggOp, len(agg.Aggs))
		for i, s := range agg.Aggs {
			htOps[i] = s.Op.HTOp()
		}
		spill = hashtable.NewSpill(w, tw.AggPartitions, 2+len(htOps))
		partDisp = exec.NewDispatcherCtx(ctx, tw.AggPartitions, 1)
	case global:
		partials = make([]GlobalPartial, w)
	}
	if !global {
		// Streamed rows and projections are in item layout; groups that
		// still face FinalizeRows or MergePartials stay in slot layout.
		width := len(pl.Cols)
		if keyed && stream == nil {
			width = agg.MergedWidth()
		}
		bufs = make([]*rowBuf, w)
		for i := range bufs {
			bufs[i] = newRowBuf(stream, width, chunk)
		}
	}

	stats := make([]workerStat, n*w)
	bar := exec.NewBarrier(w)
	exec.Parallel(w, func(wid int) {
		// The vectorized worker assembles lazily: fused pipelines never
		// draw vector buffers. Its arena comes from the pool shared by
		// all queries and goes back when the worker ends.
		var vw *VecWorker
		var arena *vector.Buffers
		defer func() {
			if arena != nil {
				vector.Put(arena)
			}
		}()
		// drain builds vectorized pipeline i's operator tree, then its
		// sink (the sink captures gather buffers the tree allocates, so
		// order matters), and drives it to exhaustion.
		drain := func(i int, mkSink func(*VecWorker) plan.Sink) plan.Sink {
			if vw == nil {
				arena = vector.Get(e.Vec)
				vw = vp.NewWorker(e, arena, pol.JoinHash)
			}
			st := &stats[i*w+wid]
			root, scan := vw.PipeRoot(i)
			sink := mkSink(vw)
			var cs *obs.CountingSink
			if col != nil {
				cs = &obs.CountingSink{Sink: sink}
				sink = cs
			}
			if pol.Drain != nil {
				st.vec = pol.Drain(root, scan, sink, e.Vec)
			} else {
				st.vec = e.Vec
				var b plan.Batch
				for root.Next(&b) {
					sink.Consume(&b)
				}
			}
			if cs != nil {
				st.rows, st.batches = cs.Rows, cs.Batches
			}
			return sink
		}

		// Build pipelines in dependency order, each publishing its
		// table with the shared two-barrier protocol.
		for i := 0; i < fi; i++ {
			start := time.Now()
			if fused(i) {
				fp.RunBuild(i, wid)
			} else {
				drain(i, func(vw *VecWorker) plan.Sink { return vw.BuildSink(i, wid) })
			}
			stats[i*w+wid].nanos = time.Since(start).Nanoseconds()
			tw.BuildBarrier(pipes[i].ht, bar, wid)
		}

		st := &stats[fi*w+wid]
		start := time.Now()
		// A fused final pipeline counts the rows reaching its sink in a
		// worker-local counter, and only on instrumented runs.
		var fusedRows int64
		var nOut *int64
		if col != nil {
			nOut = &fusedRows
		}
		switch {
		case keyed:
			if fused(fi) {
				fp.RunGrouped(wid, spill, nOut)
				bar.Wait(nil)
			} else {
				drain(fi, func(vw *VecWorker) plan.Sink { return vw.GroupBySink(wid, spill, htOps) }).Finish(bar, wid)
			}
		case global:
			if fused(fi) {
				partials[wid] = fp.RunGlobal(wid)
				fusedRows = partials[wid].N
			} else {
				drain(fi, func(vw *VecWorker) plan.Sink { return vw.GlobalSink(&partials[wid]) }).Finish(bar, wid)
			}
		case fused(fi):
			next := bufs[wid].Next
			if nOut != nil {
				next = func() []int64 {
					*nOut++
					return bufs[wid].Next()
				}
			}
			fp.RunProject(wid, next)
		default:
			drain(fi, func(vw *VecWorker) plan.Sink { return vw.CollectSink(bufs[wid].Next) })
		}
		st.nanos = time.Since(start).Nanoseconds()
		if fused(fi) {
			st.rows = fusedRows
		}

		if keyed {
			// Phase two: per-partition merge of partial aggregates,
			// engine-agnostic. A streamed group is decoded into a
			// scratch slot row and mapped straight into its output row.
			buf := bufs[wid]
			var slots []int64
			if stream != nil {
				slots = make([]int64, agg.MergedWidth())
			}
			for {
				pm, ok := partDisp.Next()
				if !ok {
					break
				}
				hashtable.MergeSpill(spill, pm.Begin, htOps, func(row []uint64) {
					if stream == nil {
						agg.DecodeMergedRow(row, buf.Next())
						return
					}
					agg.DecodeMergedRow(row, slots)
					pl.itemRow(buf.Next(), slots)
				})
			}
		}
	})

	out := Output{Vec: make([]int, n)}
	for i := 0; i < n; i++ {
		ws := stats[i*w : (i+1)*w]
		var rows, batches, nanos int64
		for _, s := range ws {
			rows += s.rows
			batches += s.batches
			nanos = max(nanos, s.nanos)
		}
		out.Vec[i] = modalVec(ws)
		if col == nil {
			continue
		}
		// The one place execution telemetry is merged, for every engine.
		col.SetPipeEngine(i, assign[i].String())
		if i < fi {
			// Build-pipeline output = the shared table's final row count.
			ht := pipes[i].ht
			rows = int64(ht.Rows())
			col.SetHTRows(i, rows, int64(ht.KeyFilter().Bits()))
			col.SetLayout(i, layout(ht.KeyIndex().On(), obs.LayoutIndex))
		} else if keyed {
			col.SetLayout(i, layout(agg.Domain.Array(), obs.LayoutArray))
		}
		col.PipeWorker(i, rows, batches, nanos)
		if out.Vec[i] > 0 {
			col.SetVec(i, out.Vec[i])
		}
		col.SetWorkers(i, w)
	}

	switch {
	case stream != nil:
		for _, b := range bufs {
			b.Flush()
		}
	case partial:
		// Hand the pre-finalization state to the exchange merge instead
		// of running the HAVING/sort/limit tail here.
		out.Partial = &Partial{}
		switch {
		case keyed:
			out.Partial.Groups = concatRows(bufs)
		case global:
			out.Partial.Globals = partials
		default:
			out.Partial.Rows = concatRows(bufs)
		}
	default:
		rows := concatRows(bufs)
		if global {
			rows = [][]int64{MergeGlobal(agg, partials)}
		}
		res, err := pl.FinalizeRows(rows)
		if err != nil {
			return Output{}, err
		}
		out.Result = res
	}
	return out, nil
}

// layout names a terminal's hash-table layout: dense when its key
// domain was indexed directly, obs.LayoutHash otherwise.
func layout(indexed bool, dense string) string {
	if indexed {
		return dense
	}
	return obs.LayoutHash
}

// modalVec returns the most frequent positive vector size among one
// pipeline's workers (ties to the smaller), or 0 when none ran
// vectorized.
func modalVec(ws []workerStat) int {
	counts := map[int]int{}
	best := 0
	for _, s := range ws {
		if s.vec <= 0 {
			continue
		}
		counts[s.vec]++
		if c := counts[s.vec]; best == 0 || c > counts[best] || (c == counts[best] && s.vec < best) {
			best = s.vec
		}
	}
	return best
}

// concatRows flattens the per-worker row lists in worker order.
func concatRows(bufs []*rowBuf) [][]int64 {
	var rows [][]int64
	for _, b := range bufs {
		rows = append(rows, b.rows...)
	}
	return rows
}
