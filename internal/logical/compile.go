package logical

import (
	"bytes"

	"paradigms/internal/catalog"
	"paradigms/internal/plan"
	"paradigms/internal/tw"
	"paradigms/internal/types"
)

// The vectorized form of the expression program (Prog): each op maps
// to a loop or tw primitive over a batch's selection, writing its
// result vector into a buffer of the worker's arena. The fused leaves
// run the primitives the hand-written plans use (col*col →
// MapMulCols, literal - col → MapRsubConst, so Q6's revenue is the same
// fused multiply-sum). A truth value is a 0/1 vector, and a residual
// conjunct's vector becomes a selection in one select-nonzero pass.

// vecFn evaluates a program's result for k rows: base+sel[i], or
// base+i when sel is nil. The result is the first k values of the
// vector it returns.
type vecFn func(base int, sel []int32, k int) []int64

// batch evaluates f over a batch's live rows.
func (f vecFn) batch(b *plan.Batch) []int64 {
	if b.Sel == nil {
		return f(b.Base, nil, b.K)
	}
	return f(b.Base, b.Sel[:b.K], b.K)
}

// vecOp is one op's vectorized form: a value or truth vector, or a
// string operand.
type vecOp struct {
	f vecFn
	s Str
}

// vecProg maps each op of pr, in post-order, to its evaluator over its
// operands' evaluators, and returns the root's.
func (w *worker) vecProg(ps *Pipeline, pr Prog) vecFn {
	var buf [8]vecOp
	st := buf[:0]
	for k := range pr.Ops {
		n := pr.Ops[k].Arity()
		v := w.mapOp(ps, &pr.Ops[k], st[len(st)-n:])
		st = append(st[:len(st)-n], v)
	}
	return st[0].f
}

// mapOp is op's vectorized form over its operands' forms in.
func (w *worker) mapOp(ps *Pipeline, op *Op, in []vecOp) vecOp {
	c32, a, b, lit := op.C32, op.A, op.B, op.Lit
	if op.Code == OpStr {
		return vecOp{s: op.S}
	}
	out := w.bufs.I64()
	var f vecFn
	switch op.Code {
	case OpLit:
		for i := range out {
			out[i] = lit
		}
		f = func(int, []int32, int) []int64 { return out }
	case OpCol32:
		f = func(base int, sel []int32, k int) []int64 {
			if sel == nil {
				for i, v := range c32[base : base+k] {
					out[i] = int64(v)
				}
			} else {
				for i, s := range sel {
					out[i] = int64(c32[base+int(s)])
				}
			}
			return out
		}
	case OpCol64:
		f = func(base int, sel []int32, k int) []int64 {
			if sel == nil {
				tw.MapCopyI64(a[base:base+k], k, out)
			} else {
				tw.FetchI64(a[base:], sel, out)
			}
			return out
		}
	case OpSlot32, OpSlot64:
		// The probe's gather buffer, aligned with the batch selection.
		words, narrow := w.colBuf[ps][op.Slot], op.Code == OpSlot32
		f = func(_ int, _ []int32, k int) []int64 {
			for i, v := range words[:k] {
				out[i] = int64(v)
				if narrow {
					out[i] = int64(int32(v))
				}
			}
			return out
		}
	case OpMulCols:
		f = func(base int, sel []int32, k int) []int64 {
			if sel == nil {
				tw.MapMulCols(a[base:base+k], b[base:base+k], k, out)
			} else {
				tw.MapMulColsSel(a[base:], b[base:], sel, out)
			}
			return out
		}
	case OpRsubCol:
		f = func(base int, sel []int32, k int) []int64 {
			if sel == nil {
				tw.MapRsubConst(a[base:base+k], lit, k, out)
			} else {
				tw.MapRsubConstSel(a[base:], lit, sel, out)
			}
			return out
		}
	case OpStrEq, OpStrNe, OpStrIn:
		items := make([]Str, len(in)-1)
		for j := range items {
			items[j] = in[1+j].s
		}
		f = strVec(in[0].s, items, op.Negate || op.Code == OpStrNe, out)
	default:
		f = opVec(op, in, out)
	}
	return vecOp{f: f}
}

// strVec evaluates whether string operand x equals any of items,
// inverted when neg is set, into out.
func strVec(x Str, items []Str, neg bool, out []int64) vecFn {
	return func(base int, sel []int32, k int) []int64 {
		for i := range out[:k] {
			row := base + i
			if sel != nil {
				row = base + int(sel[i])
			}
			v, found := x.At(row), false
			for _, it := range items {
				found = found || bytes.Equal(v, it.At(row))
			}
			out[i] = b2i(found != neg)
		}
		return out
	}
}

// opVec evaluates op, which combines the vectors of its operands in,
// into out.
func opVec(op *Op, in []vecOp, out []int64) vecFn {
	code, neg := op.Code, op.Negate
	fx, fy, fz := in[0].f, vecFn(nil), vecFn(nil)
	var items []vecFn // OpIn's
	switch {
	case code == OpIn:
		items = make([]vecFn, len(in)-1)
		for j := range items {
			items[j] = in[1+j].f
		}
	case code == OpBetween:
		fy, fz = in[1].f, in[2].f
	case len(in) > 1:
		fy = in[1].f
	}
	return func(base int, sel []int32, k int) []int64 {
		x := fx(base, sel, k)[:k]
		var y []int64
		if fy != nil {
			y = fy(base, sel, k)[:k]
		}
		o := out[:k]
		switch code {
		case OpAdd:
			for i, v := range x {
				o[i] = v + y[i]
			}
		case OpSub:
			tw.MapSub(x, y, k, o)
		case OpMul:
			tw.MapMul(x, y, k, o)
		case OpEq:
			for i, v := range x {
				o[i] = b2i(v == y[i])
			}
		case OpNe:
			for i, v := range x {
				o[i] = b2i(v != y[i])
			}
		case OpLt:
			for i, v := range x {
				o[i] = b2i(v < y[i])
			}
		case OpLe:
			for i, v := range x {
				o[i] = b2i(v <= y[i])
			}
		case OpGt:
			for i, v := range x {
				o[i] = b2i(v > y[i])
			}
		case OpGe:
			for i, v := range x {
				o[i] = b2i(v >= y[i])
			}
		case OpAnd:
			for i, v := range x {
				o[i] = b2i(v != 0 && y[i] != 0)
			}
		case OpOr:
			for i, v := range x {
				o[i] = b2i(v != 0 || y[i] != 0)
			}
		case OpNot:
			for i, v := range x {
				o[i] = b2i(v == 0)
			}
		case OpBetween:
			hi := fz(base, sel, k)[:k]
			for i, v := range x {
				o[i] = b2i((v >= y[i] && v <= hi[i]) != neg)
			}
		case OpIn:
			for i := range o {
				o[i] = b2i(neg)
			}
			for _, f := range items {
				item := f(base, sel, k)[:k]
				for i, v := range x {
					if v == item[i] {
						o[i] = b2i(!neg)
					}
				}
			}
		}
		return out
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Filter predicates
// ---------------------------------------------------------------------

// filterPreds maps the pipeline's classified filters onto a selection
// cascade: a string equality on the dense string primitive (placed
// first, as it has no selection-consuming form), then each column's
// range on internal/simd's range kernels — the same kernels as the
// compiled backend's block stage — then the other string filters, and
// last the residual conjuncts' programs resid, each a 0/1 vector.
func (w *worker) filterPreds(ps *Pipeline, resid []Prog) []plan.Pred {
	f := &ps.Filters
	if f.RejectAll {
		return []plan.Pred{{
			Dense:  func(int, int, []int32) int { return 0 },
			Sparse: func(int, int, []int32, []int32) int { return 0 },
		}}
	}
	rel := ps.Scan.Table.Rel
	// Room for every filter and each step's membership stage (pipeRoot).
	preds := make([]plan.Pred, 0, len(f.Strs)+len(f.Ranges)+len(resid)+len(ps.Steps))
	strs := f.Strs
	for i, s := range strs {
		if s.Eq {
			heap, val := rel.String(s.Col.Name), s.Val
			preds = append(preds, plan.Pred{Dense: func(base, n int, res []int32) int {
				return tw.SelEqString(heap, base, n, val, res)
			}})
			strs = append(strs[:i:i], strs[i+1:]...)
			break
		}
	}
	for _, r := range f.Ranges {
		name := r.Col.Name
		switch r.Col.Type.Kind {
		case catalog.Int32:
			preds = append(preds, plan.PredRange32(rel.Int32(name), int32(r.Lo), int32(r.Hi)))
		case catalog.Date:
			preds = append(preds, plan.PredRange32(rel.Date(name), types.Date(r.Lo), types.Date(r.Hi)))
		case catalog.Numeric:
			preds = append(preds, plan.PredRange64(rel.Numeric(name), types.Numeric(r.Lo), types.Numeric(r.Hi)))
		case catalog.Int64:
			preds = append(preds, plan.PredRange64(rel.Int64(name), r.Lo, r.Hi))
		}
	}
	for _, s := range strs {
		lit := []Str{{Lit: []byte(s.Val)}}
		preds = append(preds, nonzero(strVec(Str{Heap: rel.String(s.Col.Name)}, lit, !s.Eq, w.bufs.I64())))
	}
	for _, pr := range resid {
		preds = append(preds, nonzero(w.vecProg(ps, pr)))
	}
	return preds
}

// nonzero is the conjunct that keeps the rows where eval is not 0, in
// one select-nonzero pass.
func nonzero(eval vecFn) plan.Pred {
	return plan.Pred{
		Dense: func(base, n int, res []int32) int {
			return selectNonzero(eval(base, nil, n)[:n], nil, res)
		},
		Sparse: func(base, n int, sel, res []int32) int {
			return selectNonzero(eval(base, sel, len(sel))[:len(sel)], sel, res)
		},
	}
}

// selectNonzero writes the positions of v's nonzero values — i, or
// sel[i] when sel is not nil — to res and returns their count. res may
// alias sel.
func selectNonzero(v []int64, sel, res []int32) int {
	k := 0
	if sel == nil {
		for i, x := range v {
			res[k] = int32(i)
			if x != 0 {
				k++
			}
		}
		return k
	}
	sel = sel[:len(v)]
	for i, x := range v {
		res[k] = sel[i]
		if x != 0 {
			k++
		}
	}
	return k
}
