package logical

import (
	"context"
	"math"
	"slices"
	"sort"

	"paradigms/internal/catalog"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/plan"
	"paradigms/internal/sql"
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

// FinalizeRows turns merged rows — slot layout [keys..., aggs...] for
// grouped/global queries, item layout for projections — into the final
// Result: HAVING filtering, ORDER BY, LIMIT, and the item-slot mapping.
// It is the tail of the pipeline driver and of MergePartials, so
// HAVING/sort/limit semantics cannot drift between the engines or
// between single-process and sharded execution.
func (pl *Plan) FinalizeRows(rows [][]int64) (*Result, error) {
	agg := pl.Agg

	if pl.Having != nil {
		kept := rows[:0]
		for _, r := range rows {
			v, _, err := evalScalar(pl.Having, pl.slotLookup(r))
			if err != nil {
				return nil, err
			}
			if v != 0 {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	if len(pl.Sort) > 0 {
		// A concrete sorter: sort.SliceStable's reflect-based swapper
		// costs real time on large group counts (Q3/Q18 shapes).
		s := &rowSorter{pl: pl, rows: rows}
		if pl.Limit >= 0 && pl.Limit < len(rows) {
			rows = s.topK(pl.Limit)
		} else {
			sort.Stable(s)
		}
	}
	if pl.Limit >= 0 && len(rows) > pl.Limit {
		rows = rows[:pl.Limit]
	}

	res := &Result{Cols: pl.Cols}
	switch {
	case agg == nil:
		res.Rows = rows
	case len(rows) > 0:
		// One arena for the surviving rows, not one object per row.
		width := len(agg.ItemSlots)
		arena := make([]int64, len(rows)*width)
		res.Rows = make([][]int64, len(rows))
		for i, r := range rows {
			res.Rows[i] = arena[i*width : (i+1)*width : (i+1)*width]
			pl.itemRow(res.Rows[i], r)
		}
	}
	return res, nil
}

// itemRow maps one merged slot-layout row r = [keys..., aggs...] of an
// aggregating plan to the SELECT item layout, into out (one value per
// item).
func (pl *Plan) itemRow(out, r []int64) {
	nk := len(pl.Agg.Keys)
	for i, s := range pl.Agg.ItemSlots {
		if s.Key {
			out[i] = r[s.Idx]
		} else {
			out[i] = r[nk+s.Idx]
		}
	}
}

// rowSorter orders merged rows by the plan's ORDER BY keys (stable, so
// input order breaks ties deterministically per backend).
type rowSorter struct {
	pl   *Plan
	rows [][]int64
}

func (s *rowSorter) Len() int           { return len(s.rows) }
func (s *rowSorter) Swap(i, j int)      { s.rows[i], s.rows[j] = s.rows[j], s.rows[i] }
func (s *rowSorter) Less(i, j int) bool { return s.cmp(s.rows[i], s.rows[j]) < 0 }

// cmp orders two rows by the ORDER BY keys: negative if a sorts first,
// 0 on a tie.
func (s *rowSorter) cmp(a, b []int64) int {
	for _, k := range s.pl.Sort {
		x, y := s.pl.sortValue(a, k), s.pl.sortValue(b, k)
		if x == y {
			continue
		}
		if (x < y) != k.Desc {
			return -1
		}
		return 1
	}
	return 0
}

// topK returns exactly the first k rows of the stable sort, at
// O(n log k) instead of O(n log n): a max-heap of k row positions
// ordered by (sort keys, input position) keeps the k that sort first,
// and only those are sorted. The position tie-break is what makes the
// result the stable sort's prefix when ties straddle the cut.
func (s *rowSorter) topK(k int) [][]int64 {
	before := func(i, j int) int {
		if c := s.cmp(s.rows[i], s.rows[j]); c != 0 {
			return c
		}
		return i - j
	}
	h := make([]int, k)
	for i := range h {
		h[i] = i
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if r := c + 1; r < k && before(h[c], h[r]) < 0 {
				c = r
			}
			if before(h[i], h[c]) >= 0 {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for i := k; i < len(s.rows); i++ {
		if k > 0 && before(i, h[0]) < 0 {
			h[0] = i
			down(0)
		}
	}
	slices.SortFunc(h, before)
	out := make([][]int64, k)
	for j, i := range h {
		out[j] = s.rows[i]
	}
	return out
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

// slotLookup resolves HAVING leaves (grouping columns, aggregates) to
// values of a merged row in slot layout.
func (pl *Plan) slotLookup(row []int64) func(sql.Expr) (int64, bool) {
	return func(e sql.Expr) (int64, bool) {
		s, ok := pl.findSlot(e)
		if !ok {
			return 0, false
		}
		return pl.slotValue(row, s), true
	}
}

func (pl *Plan) slotValue(row []int64, s Slot) int64 {
	if s.Key {
		return row[s.Idx]
	}
	return row[len(pl.Agg.Keys)+s.Idx]
}

// findSlot locates the output slot of a grouping column or aggregate.
func (pl *Plan) findSlot(e sql.Expr) (Slot, bool) {
	agg := pl.Agg
	if agg == nil {
		return Slot{}, false
	}
	switch x := e.(type) {
	case *sql.Agg:
		for i, s := range agg.Aggs {
			if s.Op != OpFirst && sql.Equal(s.Src, x) {
				return Slot{Key: false, Idx: i}, true
			}
		}
	case *sql.ColRef:
		if i, ok := agg.KeyOf[x.Col]; ok {
			return Slot{Key: true, Idx: i}, true
		}
		for i, s := range agg.Aggs {
			if s.Op == OpFirst {
				if ref, ok := s.Arg.(*sql.ColRef); ok && ref.Col == x.Col {
					return Slot{Key: false, Idx: i}, true
				}
			}
		}
	}
	return Slot{}, false
}

func (pl *Plan) sortValue(row []int64, k SortKey) int64 {
	if pl.Agg == nil {
		return row[k.Item]
	}
	return pl.slotValue(row, k.Slot)
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
// also returning the root scan operator, so callers that retune the
// vector size mid-flight (micro-adaptive sizing) keep a handle on it.
// The pipeline's membership stages (Members) close its FilterChain,
// ahead of the first HashProbe, and their steps' probes skip the key
// filter.
func (w *worker) pipeRoot(ps *Pipeline, e *plan.Exec) (plan.Operator, *plan.Scan) {
	scan := e.NewScan(ps.disp)
	var op plan.Operator = scan
	preds := w.filterPreds(ps)
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
// pipeline.
func (w *worker) srcVecU64(ps *Pipeline, c *catalog.Column) plan.VecU64 {
	if slot := ps.Slot(c); slot >= 0 {
		return plan.FromU64(w.colBuf[ps][slot])
	}
	rel := ps.Scan.Table.Rel
	switch c.Type.Kind {
	case catalog.Int32:
		return plan.KeyWiden(rel.Int32(c.Name))
	case catalog.Date:
		return plan.KeyWiden(rel.Date(c.Name))
	case catalog.Numeric:
		return plan.ColU64FromI64(rel.Numeric(c.Name))
	case catalog.Int64:
		return plan.ColU64FromI64(rel.Int64(c.Name))
	}
	panic("logical: column " + c.Name + " cannot be a key or payload")
}

// u64Vec returns the column's uint64 vector for the current batch
// (gathered buffers as-is, base columns materialized through the
// selection into a private buffer).
func (w *worker) u64Vec(ps *Pipeline, c *catalog.Column) func(b *plan.Batch) []uint64 {
	if slot := ps.Slot(c); slot >= 0 {
		buf := w.colBuf[ps][slot]
		return func(*plan.Batch) []uint64 { return buf }
	}
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

// aggInput compiles one aggregate slot's input vector.
func (w *worker) aggInput(ps *Pipeline, s AggSpec) plan.VecI64 {
	if s.Op == OpCount && s.Arg == nil { // COUNT(*)
		return w.onesVec()
	}
	if s.Op == OpCount { // COUNT(expr): no NULLs, every row counts
		return w.onesVec()
	}
	v := w.vecI64(ps, s.Arg)
	return func(b *plan.Batch, _ []int64) []int64 { return v(b) }
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
	vals  []vec64
	acc   []int64
	n     int64
	out   *GlobalPartial
}

func newGlobalAggSink(w *worker, ps *Pipeline, agg *Aggregate, out *GlobalPartial) *globalAggSink {
	s := &globalAggSink{specs: agg.Aggs, out: out, acc: make([]int64, len(agg.Aggs))}
	s.vals = make([]vec64, len(agg.Aggs))
	for i, spec := range agg.Aggs {
		switch spec.Op {
		case OpMin:
			s.acc[i] = math.MaxInt64
		case OpMax:
			s.acc[i] = math.MinInt64
		}
		if spec.Op != OpCount {
			s.vals[i] = w.vecI64(ps, spec.Arg)
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
			s.acc[j] += tw.SumI64(s.vals[j](b), b.K)
		case OpMin:
			v := s.vals[j](b)
			for i := 0; i < b.K; i++ {
				if v[i] < s.acc[j] {
					s.acc[j] = v[i]
				}
			}
		case OpMax:
			v := s.vals[j](b)
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
	exprs []vec64
	vecs  [][]int64 // one evaluated vector per expression, per batch
	next  func() []int64
}

// Consume implements plan.Sink.
func (s *collectSink) Consume(b *plan.Batch) {
	for j, e := range s.exprs {
		s.vecs[j] = e(b)
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
