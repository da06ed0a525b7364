package logical

import (
	"context"
	"math"

	"paradigms/internal/catalog"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/plan"
	"paradigms/internal/tw"
	"paradigms/internal/vector"
)

// Execute runs the plan as the tectorwise engine: every pipeline
// vectorized at the given vector size (0 = default), with the
// vectorized default join hash. A canceled context drains the workers
// within one morsel and returns a partial result the caller discards
// (the same contract as the registered engine queries). The plan must
// be fully bound (BindArgs).
func (pl *Plan) Execute(ctx context.Context, workers, vecSize int) (*Result, error) {
	out, err := pl.driveVec(ctx, workers, vecSize, Mode{})
	return out.Result, err
}

// driveVec is the tectorwise row of the engine policy table.
func (pl *Plan) driveVec(ctx context.Context, workers, vecSize int, mode Mode) (Output, error) {
	vp, err := LowerVec(pl)
	if err != nil {
		return Output{}, err
	}
	return Drive(ctx, pl, workers, Policy{Vec: vp, VecSize: vecSize}, mode)
}

// HTOp maps a logical aggregate operator to the shared merge machinery
// of the partition-merge phase.
func (op AggOp) HTOp() hashtable.AggOp {
	switch op {
	case OpSum, OpCount:
		return hashtable.OpSum
	case OpMin:
		return hashtable.OpMin
	case OpMax:
		return hashtable.OpMax
	}
	return hashtable.OpFirst
}

// MergedWidth is the slot-layout width of a merged group row:
// [keys..., aggs...].
func (agg *Aggregate) MergedWidth() int { return len(agg.Keys) + len(agg.Aggs) }

// DecodeMergedRow fills out (slot layout [keys..., aggs...], length
// MergedWidth) from one merged spill row [hash, key, aggs...] — the
// decode of aggregation phase two.
func (agg *Aggregate) DecodeMergedRow(row []uint64, out []int64) {
	DecodeGroupKey(agg.Keys, row[1], out)
	nk := len(agg.Keys)
	for j := range agg.Aggs {
		out[nk+j] = int64(row[2+j])
	}
}

// DecodeGroupKey unpacks the group-key word into the first len(keys)
// output slots, restoring 32-bit signs. It is the decode side of the
// key encoding both lowering backends share (single keys as
// zero-extended words, 32-bit pairs packed lo|hi<<32).
func DecodeGroupKey(keys []*catalog.Column, word uint64, out []int64) {
	if len(keys) == 1 {
		out[0] = int64(word)
		if narrowKey(keys[0]) {
			out[0] = int64(int32(uint32(word)))
		}
		return
	}
	out[0] = int64(int32(uint32(word)))
	out[1] = int64(int32(uint32(word >> 32)))
}

// narrowKey reports whether a key column's word is its 32-bit value
// zero-extended.
func narrowKey(c *catalog.Column) bool {
	return c.Type.Kind == catalog.Int32 || c.Type.Kind == catalog.Date
}

// MergeGlobal combines the per-worker partials of a global aggregate
// into the single output row. With zero input rows, sums and counts are
// 0 (the engine has no NULL). Shared by both lowering backends so the
// empty-input and min/max-sentinel semantics stay identical.
func MergeGlobal(agg *Aggregate, partials []GlobalPartial) []int64 {
	out := make([]int64, len(agg.Aggs))
	for j, s := range agg.Aggs {
		switch s.Op {
		case OpMin:
			out[j] = math.MaxInt64
		case OpMax:
			out[j] = math.MinInt64
		}
	}
	var total int64
	for _, p := range partials {
		if p.N == 0 {
			continue
		}
		total += p.N
		for j, s := range agg.Aggs {
			switch s.Op {
			case OpSum, OpCount:
				out[j] += p.Acc[j]
			case OpMin:
				if p.Acc[j] < out[j] {
					out[j] = p.Acc[j]
				}
			case OpMax:
				if p.Acc[j] > out[j] {
					out[j] = p.Acc[j]
				}
			case OpFirst:
				out[j] = p.Acc[j]
			}
		}
	}
	if total == 0 {
		for j := range out {
			out[j] = 0
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Per-worker pipeline assembly
// ---------------------------------------------------------------------

// worker holds one worker's buffer arena and the gathered-column
// buffers of each pipeline, indexed by Pipeline.Slot. A non-nil hash
// overrides the probe-side hash function of every join table (the
// hybrid policy's Mix64 standardization); nil keeps the engine default.
type worker struct {
	bufs   *vector.Buffers
	colBuf map[*Pipeline][][]uint64
	ones   []int64
	hash   plan.HashFn
}

// pipeRoot assembles the operator tree of one pipeline for this worker,
// with resid the programs of its residual conjuncts, also returning the
// root scan operator, so callers that retune the vector size mid-flight
// (micro-adaptive sizing) keep a handle on it.
// The pipeline's membership stages (Members) close its FilterChain,
// ahead of the first HashProbe, and their steps' probes skip the key
// filter.
func (w *worker) pipeRoot(ps *Pipeline, e *plan.Exec, resid []Prog) (plan.Operator, *plan.Scan) {
	scan := e.NewScan(ps.disp)
	var op plan.Operator = scan
	preds := w.filterPreds(ps, resid)
	members := ps.Members()
	for i := range members {
		m := &members[i]
		preds = append(preds, plan.Pred{Dense: m.Dense, Sparse: m.Sparse})
	}
	if len(preds) > 0 {
		op = plan.NewFilterChain(w.bufs, op, preds...)
	}
	bufs := make([][]uint64, ps.Gathered())
	w.colBuf[ps] = bufs
	live := 0 // bufs[:live] are gathered by earlier steps
	for s, st := range ps.Steps {
		spec := plan.ProbeSpec{HT: st.Build.ht, Key: w.srcVecU64(ps, st.ProbeKey), Hash: w.hash}
		for _, m := range members {
			spec.Staged = spec.Staged || m.Step == s
		}
		for i, g := range st.Gathers {
			bufs[live+i] = w.bufs.Ref()
			spec.GatherU64 = append(spec.GatherU64, plan.GatherU64{Word: g.Word, Dst: bufs[live+i]})
		}
		for _, lb := range bufs[:live] {
			spec.Carry = append(spec.Carry, plan.CarryU64(w.bufs, lb))
		}
		op = plan.NewHashProbe(w.bufs, op, spec)
		live += len(st.Gathers)
		for _, r := range st.Residuals {
			av := w.u64Vec(ps, r[0])
			bv := w.u64Vec(ps, r[1])
			var carries []plan.Carry
			for _, lb := range bufs[:live] {
				carries = append(carries, plan.CarryU64(w.bufs, lb))
			}
			op = plan.NewMatch(w.bufs, op,
				func(b *plan.Batch, res []int32) int {
					return tw.SelEqCols(av(b), bv(b), b.K, res)
				}, carries...)
		}
	}
	return op, scan
}

// srcVecU64 builds a key/payload expression for a column of the
// pipeline from its program leaf.
func (w *worker) srcVecU64(ps *Pipeline, c *catalog.Column) plan.VecU64 {
	leaf, err := ps.Leaf(c)
	if err != nil {
		panic(err) // unreachable: the planner keys and carries numeric columns only
	}
	switch leaf.Code {
	case OpSlot32, OpSlot64:
		return plan.FromU64(w.colBuf[ps][leaf.Slot])
	case OpCol32:
		return plan.KeyWiden(leaf.C32)
	}
	return plan.ColU64FromI64(leaf.A)
}

// u64Vec returns the column's uint64 vector for the current batch
// (gathered buffers as-is, base columns materialized through the
// selection into a private buffer).
func (w *worker) u64Vec(ps *Pipeline, c *catalog.Column) func(b *plan.Batch) []uint64 {
	expr := w.srcVecU64(ps, c)
	scratch := w.bufs.Ref()
	return func(b *plan.Batch) []uint64 { return expr(b, scratch) }
}

// groupKey builds the grouping-key expression: one key hashes directly,
// two pack lo|hi<<32 like the hand-written Q2.1 plan.
func (w *worker) groupKey(ps *Pipeline, agg *Aggregate) plan.VecU64 {
	if len(agg.Keys) == 1 {
		return w.srcVecU64(ps, agg.Keys[0])
	}
	lo := w.u64Vec(ps, agg.Keys[0])
	hi := w.u64Vec(ps, agg.Keys[1])
	return func(b *plan.Batch, scratch []uint64) []uint64 {
		tw.MapPackU64LoHi(lo(b), hi(b), b.K, scratch)
		return scratch
	}
}

// aggInput is slot j's input vector: its program args[j], or ones for
// COUNT (no NULLs, every row counts).
func (w *worker) aggInput(ps *Pipeline, j int, s AggSpec, args []Prog) plan.VecI64 {
	if s.Op == OpCount {
		return w.onesVec()
	}
	v := w.vecProg(ps, args[j])
	return func(b *plan.Batch, _ []int64) []int64 { return v.batch(b) }
}

func (w *worker) onesVec() plan.VecI64 {
	if w.ones == nil {
		w.ones = w.bufs.I64()
		for i := range w.ones {
			w.ones[i] = 1
		}
	}
	ones := w.ones
	return func(b *plan.Batch, _ []int64) []int64 { return ones }
}

// GlobalPartial is one worker's share of a global aggregate: the
// accumulator per aggregate slot plus the worker's input row count (so
// MergeGlobal can zero the output when no row qualified anywhere).
type GlobalPartial struct {
	Acc []int64
	N   int64
}

// globalAggSink reduces the final pipeline to per-worker accumulators —
// the generic form of the hand plans' SumSink, so global SUM keeps the
// identical fused multiply-sum hot loop.
type globalAggSink struct {
	specs []AggSpec
	vals  []vecFn
	acc   []int64
	n     int64
	out   *GlobalPartial
}

func newGlobalAggSink(w *worker, ps *Pipeline, agg *Aggregate, args []Prog, out *GlobalPartial) *globalAggSink {
	s := &globalAggSink{specs: agg.Aggs, out: out, acc: make([]int64, len(agg.Aggs))}
	s.vals = make([]vecFn, len(agg.Aggs))
	for i, spec := range agg.Aggs {
		switch spec.Op {
		case OpMin:
			s.acc[i] = math.MaxInt64
		case OpMax:
			s.acc[i] = math.MinInt64
		}
		if spec.Op != OpCount {
			s.vals[i] = w.vecProg(ps, args[i])
		}
	}
	return s
}

// Consume implements plan.Sink.
func (s *globalAggSink) Consume(b *plan.Batch) {
	s.n += int64(b.K)
	for j, spec := range s.specs {
		switch spec.Op {
		case OpCount:
			s.acc[j] += int64(b.K)
		case OpSum:
			s.acc[j] += tw.SumI64(s.vals[j].batch(b), b.K)
		case OpMin:
			v := s.vals[j].batch(b)
			for i := 0; i < b.K; i++ {
				if v[i] < s.acc[j] {
					s.acc[j] = v[i]
				}
			}
		case OpMax:
			v := s.vals[j].batch(b)
			for i := 0; i < b.K; i++ {
				if v[i] > s.acc[j] {
					s.acc[j] = v[i]
				}
			}
		}
	}
}

// Finish implements plan.Sink.
func (s *globalAggSink) Finish(bar *exec.Barrier, wid int) {
	*s.out = GlobalPartial{Acc: s.acc, N: s.n}
	bar.Wait(nil)
}

// collectSink writes projection rows into the rows next hands out as
// each vector is consumed.
type collectSink struct {
	exprs []vecFn
	vecs  [][]int64 // one evaluated vector per expression, per batch
	next  func() []int64
}

// Consume implements plan.Sink.
func (s *collectSink) Consume(b *plan.Batch) {
	for j, e := range s.exprs {
		s.vecs[j] = e.batch(b)
	}
	for i := 0; i < b.K; i++ {
		row := s.next()
		for j, v := range s.vecs {
			row[j] = v[i]
		}
	}
}

// Finish implements plan.Sink.
func (s *collectSink) Finish(bar *exec.Barrier, wid int) { bar.Wait(nil) }
