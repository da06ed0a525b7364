package compiled

import (
	"paradigms/internal/logical"
)

// Block folds: the global aggregate of a row-free pipeline (no string
// equalities, generic predicates or probes — loopRowFree) takes a whole
// block's qualifying rows at once instead of one sink call per row, the
// staging point Relaxed Operator Fusion (Menon et al., VLDB 2017) puts
// inside a fused pipeline. COUNT adds the block's row count; SUM reduces
// a column, or a product of two, in one tight loop over the column
// views scalar fuses (colView). Any other slot — MIN/MAX, another
// expression — and every grouped or projecting terminal keeps the
// per-row sink, which a row-free pipeline calls without the per-row
// walks. Sums wrap mod 2⁶⁴ either way, so block partials are
// bit-identical to the row loop.

// foldAgg is one global aggregate slot of a block fold: COUNT, or SUM
// over in.
type foldAgg struct {
	op logical.AggOp
	in colView
}

// lowerFold compiles agg's block terminal, or returns nil when agg is
// grouped or a slot is not COUNT or a SUM over a column or col*col.
func (p *pipe) lowerFold(agg *logical.Aggregate) []foldAgg {
	if agg == nil || len(agg.Keys) > 0 {
		return nil
	}
	aggs := make([]foldAgg, len(agg.Aggs))
	for j, s := range agg.Aggs {
		aggs[j].op = s.Op
		switch s.Op {
		case logical.OpCount:
		case logical.OpSum:
			aggs[j].in = p.baseView(s.Arg)
			switch aggs[j].in.kind {
			case viewCol32, viewCol64, viewMul:
			default:
				return nil
			}
		default:
			return nil
		}
	}
	return aggs
}

// blockFold is one worker's block terminal over a global aggregate's
// accumulators. It is a concrete type so the fused loop's selection
// buffer, passed to block, stays on the worker's stack.
type blockFold struct {
	aggs []foldAgg
	acc  []int64 // one accumulator per slot
	n    *int64  // rows folded (GlobalPartial.N)
}

// block folds the rows base+pos[j] (every row of [base, end) when pos
// is nil).
func (b *blockFold) block(base, end int, pos []int32) {
	n := end - base
	if pos != nil {
		n = len(pos)
	}
	*b.n += int64(n)
	for j := range b.aggs {
		f := &b.aggs[j]
		if f.op == logical.OpCount {
			b.acc[j] += int64(n)
			continue
		}
		switch f.in.kind {
		case viewCol32:
			b.acc[j] += sumOf(f.in.c32, base, end, pos)
		case viewCol64:
			b.acc[j] += sumOf(f.in.a, base, end, pos)
		case viewMul:
			b.acc[j] += sumMul(f.in.a, f.in.b, base, end, pos)
		}
	}
}

// sumOf and sumMul reduce one block of a column, or of a product of
// two, over the rows base+pos[j] (all of [base, end) when pos is nil).

func sumOf[T int32 | int64](c []T, base, end int, pos []int32) (s int64) {
	c = c[base:end]
	if pos == nil {
		for _, v := range c {
			s += int64(v)
		}
		return s
	}
	for _, j := range pos {
		s += int64(c[j])
	}
	return s
}

func sumMul(a, b []int64, base, end int, pos []int32) (s int64) {
	a, b = a[base:end], b[base:end]
	b = b[:len(a)]
	if pos == nil {
		for i, v := range a {
			s += v * b[i]
		}
		return s
	}
	for _, j := range pos {
		s += a[j] * b[j]
	}
	return s
}
