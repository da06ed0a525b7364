// Package hybrid is the per-pipeline mixed-paradigm executor — the
// plan-driven generalization of the paper's relaxed-operator-fusion
// observation (§9.1) that neither compiled nor vectorized execution
// dominates: probe-heavy pipelines want vector-at-a-time access (full
// memory parallelism across a batch of cache-missing lookups), while
// compute-dominated pipelines want fused tuple-at-a-time loops (no
// materialization of intermediates).
//
// Both lowering backends decompose a query into the *same* pipelines
// (internal/logical's vectorized lowering and internal/compiled's
// fused lowering recurse over one optimized plan with one
// deterministic column order, so hash-table layouts match word for
// word). This executor lowers a plan on both backends, assigns every
// pipeline to an engine — by cost heuristic, or by a Router fed with
// per-pipeline latencies — and runs the pipelines in dependency order,
// exchanging data through the materialization boundaries that already
// exist: shared hash tables (standardized on the compiled backend's
// Mix64 hash so either engine can build what the other probes) and the
// shared aggregation spill. All workers run a given pipeline on the
// same engine, so engine-local state (aggregation hashing, vector
// buffers) never crosses paradigms.
//
// Vectorized pipelines additionally pick their vector size
// micro-adaptively (§8.4): each worker times a few batches at each
// candidate size and commits to the fastest, per pipeline.
package hybrid

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"paradigms/internal/compiled"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/plan"
	"paradigms/internal/simd"
	"paradigms/internal/tw"
	"paradigms/internal/vector"
)

// Spill layouts assume both backends partition aggregation spills
// identically (compile-time check).
var _ [compiled.AggPartitions - tw.AggPartitions]struct{}
var _ [tw.AggPartitions - compiled.AggPartitions]struct{}

// Engine selects the backend of one pipeline.
type Engine uint8

const (
	// EngineCompiled runs a pipeline as internal/compiled's fused
	// tuple-at-a-time loop.
	EngineCompiled Engine = iota
	// EngineVectorized runs a pipeline on internal/plan's vectorized
	// operators via internal/logical's lowering.
	EngineVectorized
)

// String renders the one-letter engine tag used in assignment suffixes
// ("t" for the fused Typer-style backend, "v" for vectorized).
func (e Engine) String() string {
	if e == EngineCompiled {
		return "t"
	}
	return "v"
}

// PipeMeta describes one pipeline for routing decisions: its spine
// table and cardinality, how many hash probes and filter conjuncts it
// runs, and whether it terminates in a hash-table build.
type PipeMeta struct {
	Table   string
	Rows    int
	Probes  int
	Filters int
	Build   bool
}

// Router chooses per-pipeline engine assignments and learns from
// observed latencies. Decide must return one Engine per pipeline (a
// short or nil answer falls back to CostAssign); Observe is called
// after a successful execution with the per-pipeline wall times.
type Router interface {
	Decide(meta []PipeMeta) []Engine
	Observe(assign []Engine, nanos []int64)
}

// CostAssign is the cold-start heuristic: probing *final* pipelines go
// vectorized (a batch of hash probes overlaps its cache misses, and
// the final pipeline scans the fact table, so probe stalls dominate
// it), while build pipelines and filter-only pipelines go compiled —
// a build ends in a materialization boundary either way, so the fused
// loop's zero intermediate cost wins even when the build itself
// probes. This seeds the Router's arms and is the whole policy when no
// Router is given.
func CostAssign(meta []PipeMeta) []Engine {
	out := make([]Engine, len(meta))
	for i, m := range meta {
		if m.Probes > 0 && !m.Build {
			out[i] = EngineVectorized
		} else {
			out[i] = EngineCompiled
		}
	}
	return out
}

// Report describes one hybrid execution: the engine each pipeline ran
// on, the vector size each vectorized pipeline settled on (0 for
// compiled pipelines), and each pipeline's wall time (max across
// workers).
type Report struct {
	Assign []Engine
	Vec    []int
	Nanos  []int64
}

// Suffix renders the assignment as "[t,v,...]" — the decoration
// appended to the engine name in EXPLAIN, \statsz, and EngineUsed.
func (r *Report) Suffix() string {
	parts := make([]string, len(r.Assign))
	for i, e := range r.Assign {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// JoinHash is the hash function of every join hash table a hybrid
// execution builds, on both backends: the compiled engine's Mix64,
// applied 4-way unrolled on the vectorized side. Standardizing the
// join hash is what lets a table built by one engine be probed by the
// other.
var JoinHash plan.HashFn = simd.HashMix64Unrolled

// vecCandidates are the micro-adaptive vector-size trial points
// (§8.4): small enough to stay L1-resident, large enough to amortize
// interpretation. Buffers are allocated at the largest candidate.
var vecCandidates = [...]int{256, 1024, 4096}

// trialBatches is how many batches each candidate size is timed for
// before committing.
const trialBatches = 4

// ExecuteRouted runs an optimized, fully bound plan with an explicit
// Router (nil = cost heuristic only) and an explicit vector size (0 =
// micro-adaptive). On success the Router has been fed the observed
// per-pipeline latencies and the returned Report describes the run.
// The executor has no incremental stream and no partial path of its
// own; internal/engine materializes and chunks for streaming callers.
func ExecuteRouted(ctx context.Context, pl *logical.Plan, nWorkers, vecSize int, router Router) (*logical.Result, *Report, error) {
	if len(pl.Params) > 0 {
		return nil, nil, fmt.Errorf("hybrid: statement has %d unbound parameter(s); bind them with BindArgs first", len(pl.Params))
	}

	cp, err := compiled.LowerProgram(pl)
	if err != nil {
		return nil, nil, err
	}
	vp, err := logical.LowerVec(pl)
	if err != nil {
		return nil, nil, err
	}
	n := cp.NumPipes()
	// Defensive parity check: the hybrid contract is that both
	// lowerings decompose the plan identically.
	if vp.NumPipes() != n {
		return nil, nil, fmt.Errorf("hybrid: backend pipeline counts diverged (%d fused, %d vectorized)", n, vp.NumPipes())
	}
	for i := 0; i < n; i++ {
		if cp.IsBuild(i) != vp.IsBuild(i) || cp.PayWidth(i) != vp.PayWidth(i) || cp.TableName(i) != vp.TableName(i) {
			return nil, nil, fmt.Errorf("hybrid: pipeline %d shape diverged between backends", i)
		}
	}

	meta := make([]PipeMeta, n)
	for i := range meta {
		meta[i] = PipeMeta{
			Table:   cp.TableName(i),
			Rows:    cp.TableRows(i),
			Probes:  cp.NumProbes(i),
			Filters: cp.NumFilters(i),
			Build:   cp.IsBuild(i),
		}
	}
	var assign []Engine
	if router != nil {
		assign = router.Decide(meta)
	}
	if len(assign) != n {
		assign = CostAssign(meta)
	}

	col := obs.FromContext(ctx)
	if col != nil {
		vp.Describe(col)
	}

	adaptive := vecSize <= 0
	vcap := vecSize
	if adaptive {
		vcap = vecCandidates[len(vecCandidates)-1]
	}
	e := plan.NewExec(ctx, nWorkers, vcap)
	w := e.Workers

	hts := make([]*hashtable.Table, n)
	for i := 0; i < n; i++ {
		disp := exec.NewDispatcherCtx(ctx, cp.TableRows(i), 0)
		if cp.IsBuild(i) {
			hts[i] = hashtable.New(1+cp.PayWidth(i), w)
		}
		cp.Bind(i, hts[i], disp)
		vp.Bind(i, hts[i], disp)
	}

	agg := pl.Agg
	keyed := agg != nil && len(agg.Keys) > 0
	global := agg != nil && len(agg.Keys) == 0

	var (
		spill      *hashtable.Spill
		partDisp   *exec.Dispatcher
		htOps      []hashtable.AggOp
		workerRows [][][]int64
		partials   []logical.GlobalPartial
	)
	switch {
	case keyed:
		htOps = make([]hashtable.AggOp, len(agg.Aggs))
		for i, s := range agg.Aggs {
			htOps[i] = s.Op.HTOp()
		}
		spill = hashtable.NewSpill(w, tw.AggPartitions, 2+len(htOps))
		partDisp = exec.NewDispatcherCtx(ctx, tw.AggPartitions, 1)
		workerRows = make([][][]int64, w)
	case global:
		partials = make([]logical.GlobalPartial, w)
	default:
		workerRows = make([][][]int64, w)
	}

	// Per-pipeline, per-worker observations (each worker writes only
	// its own column — race free).
	nanos := make([][]int64, n)
	vecs := make([][]int, n)
	for i := range nanos {
		nanos[i] = make([]int64, w)
		vecs[i] = make([]int, w)
	}
	// Row/batch counters, allocated only when a collector rides the
	// context (same per-worker-column discipline).
	var orows, obat [][]int64
	if col != nil {
		orows = make([][]int64, n)
		obat = make([][]int64, n)
		for i := range orows {
			orows[i] = make([]int64, w)
			obat[i] = make([]int64, w)
		}
	}

	fi := n - 1 // final pipeline (lowering order puts it last)
	bar := exec.NewBarrier(w)
	exec.Parallel(w, func(wid int) {
		// The vectorized worker assembles lazily: pure-compiled
		// assignments never allocate vector buffers.
		var vw *logical.VecWorker
		vecWorker := func() *logical.VecWorker {
			if vw == nil {
				vw = vp.NewWorker(e, vector.NewBuffers(vcap), JoinHash)
			}
			return vw
		}
		// drain builds pipeline i's operator tree, then its sink (the
		// sink captures gather buffers the tree allocates, so order
		// matters), and drives it to exhaustion.
		drain := func(i int, mkSink func() plan.Sink) plan.Sink {
			root, scan := vecWorker().PipeRoot(i)
			sink := mkSink()
			var cs *obs.CountingSink
			if col != nil {
				cs = &obs.CountingSink{Sink: sink}
				sink = cs
			}
			if adaptive {
				vecs[i][wid] = drainAdaptive(root, scan, sink)
			} else {
				vecs[i][wid] = vecSize
				var b plan.Batch
				for root.Next(&b) {
					sink.Consume(&b)
				}
			}
			if cs != nil {
				orows[i][wid], obat[i][wid] = cs.Rows, cs.Batches
			}
			return sink
		}

		// Build pipelines in dependency order, each publishing its
		// table with the shared two-barrier protocol.
		for i := 0; i < n; i++ {
			if !cp.IsBuild(i) {
				continue
			}
			start := time.Now()
			if assign[i] == EngineCompiled {
				cp.RunBuild(i, wid)
			} else {
				i := i
				drain(i, func() plan.Sink { return vecWorker().BuildSink(i, wid) })
			}
			nanos[i][wid] = time.Since(start).Nanoseconds()
			tw.BuildBarrier(hts[i], bar, wid)
		}

		start := time.Now()
		var nOut *int64
		if col != nil {
			nOut = &orows[fi][wid]
		}
		switch {
		case keyed:
			if assign[fi] == EngineCompiled {
				cp.RunGrouped(wid, spill, nOut)
				bar.Wait(nil)
			} else {
				sink := drain(fi, func() plan.Sink { return vecWorker().GroupBySink(wid, spill, htOps) })
				sink.Finish(bar, wid)
			}
			// Phase two: partition merge, engine-agnostic.
			for {
				pm, ok := partDisp.Next()
				if !ok {
					break
				}
				hashtable.MergeSpill(spill, pm.Begin, htOps, func(row []uint64) {
					out := make([]int64, agg.MergedWidth())
					agg.DecodeMergedRow(row, out)
					workerRows[wid] = append(workerRows[wid], out)
				})
			}
		case global:
			if assign[fi] == EngineCompiled {
				partials[wid] = cp.RunGlobal(wid)
				if nOut != nil {
					*nOut = partials[wid].N
				}
			} else {
				sink := drain(fi, func() plan.Sink { return vecWorker().GlobalSink(&partials[wid]) })
				sink.Finish(bar, wid)
			}
		default:
			if assign[fi] == EngineCompiled {
				workerRows[wid] = cp.RunProject(wid)
				if nOut != nil {
					*nOut = int64(len(workerRows[wid]))
				}
			} else {
				drain(fi, func() plan.Sink { return vecWorker().CollectSink(&workerRows[wid]) })
			}
		}
		nanos[fi][wid] = time.Since(start).Nanoseconds()
	})

	var rows [][]int64
	switch {
	case global:
		rows = [][]int64{logical.MergeGlobal(agg, partials)}
	default:
		for _, wr := range workerRows {
			rows = append(rows, wr...)
		}
	}
	res, err := pl.FinalizeRows(rows)
	if err != nil {
		return nil, nil, err
	}

	rep := &Report{Assign: assign, Vec: make([]int, n), Nanos: make([]int64, n)}
	for i := 0; i < n; i++ {
		rep.Nanos[i] = maxOf(nanos[i])
		if assign[i] == EngineVectorized {
			rep.Vec[i] = modal(vecs[i])
		}
	}
	if col != nil {
		for i := 0; i < n; i++ {
			col.SetPipeEngine(i, assign[i].String())
			var rows, bat int64
			for wid := 0; wid < w; wid++ {
				rows += orows[i][wid]
				bat += obat[i][wid]
			}
			if cp.IsBuild(i) {
				rows = int64(hts[i].Rows())
				col.SetHTRows(i, rows)
			}
			col.PipeWorker(i, rows, bat, rep.Nanos[i])
			if rep.Vec[i] > 0 {
				col.SetVec(i, rep.Vec[i])
			}
		}
	}
	if router != nil && ctx.Err() == nil {
		router.Observe(assign, rep.Nanos)
	}
	return res, rep, nil
}

// drainAdaptive drives a vectorized pipeline with micro-adaptive
// vector sizing: time trialBatches batches at each candidate size,
// commit to the fastest (ns per scanned row), drain the rest at that
// size. The batch stream is identical to a fixed-size drain — trial
// batches are consumed normally, only their size varies.
func drainAdaptive(root plan.Operator, scan *plan.Scan, sink plan.Sink) int {
	var b plan.Batch
	best, bestNs := vecCandidates[len(vecCandidates)-1], int64(math.MaxInt64)
	for _, c := range vecCandidates {
		scan.SetVec(c)
		rows := 0
		t0 := time.Now()
		for k := 0; k < trialBatches; k++ {
			if !root.Next(&b) {
				return c // exhausted mid-trial: sizing is moot
			}
			sink.Consume(&b)
			rows += b.N
		}
		if per := time.Since(t0).Nanoseconds() / int64(rows); per < bestNs {
			bestNs, best = per, c
		}
	}
	scan.SetVec(best)
	for root.Next(&b) {
		sink.Consume(&b)
	}
	return best
}

// modal returns the most frequent positive value (ties to the
// smaller), or 0 when none.
func modal(xs []int) int {
	counts := map[int]int{}
	for _, x := range xs {
		if x > 0 {
			counts[x]++
		}
	}
	best, bestN := 0, 0
	for x, c := range counts {
		if c > bestN || (c == bestN && x < best) {
			best, bestN = x, c
		}
	}
	return best
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Explain renders the hybrid assignment a cold start would pick (the
// cost heuristic, before any adaptation) above the shared pipeline
// decomposition.
func Explain(pl *logical.Plan) (string, error) {
	cp, err := compiled.LowerProgram(pl)
	if err != nil {
		return "", err
	}
	n := cp.NumPipes()
	meta := make([]PipeMeta, n)
	for i := range meta {
		meta[i] = PipeMeta{
			Table:   cp.TableName(i),
			Rows:    cp.TableRows(i),
			Probes:  cp.NumProbes(i),
			Filters: cp.NumFilters(i),
			Build:   cp.IsBuild(i),
		}
	}
	assign := CostAssign(meta)
	var sb strings.Builder
	fmt.Fprintf(&sb, "hybrid assignment (cost heuristic): %s\n", (&Report{Assign: assign}).Suffix())
	for i, m := range meta {
		kind := "final"
		if m.Build {
			kind = "build"
		}
		name := "compiled"
		if assign[i] == EngineVectorized {
			name = "vectorized"
		}
		fmt.Fprintf(&sb, "P%d %s (%s): %s — %d probes, %d filters\n", i+1, m.Table, kind, name, m.Probes, m.Filters)
	}
	for _, a := range assign {
		if a == EngineVectorized {
			sizes := make([]string, len(vecCandidates))
			for i, v := range vecCandidates {
				sizes[i] = strconv.Itoa(v)
			}
			fmt.Fprintf(&sb, "vectorized pipelines pick their vector size per worker from {%s} (micro-adaptive)\n",
				strings.Join(sizes, ", "))
			break
		}
	}
	body, err := compiled.Explain(pl)
	if err != nil {
		return "", err
	}
	sb.WriteString(body)
	return sb.String(), nil
}
