package compiled

import (
	"bytes"

	"paradigms/internal/catalog"
	"paradigms/internal/logical"
	"paradigms/internal/storage"
)

// The row-level form of the expression program (logical.Prog): each op
// maps to a closure evaluated one tuple at a time inside the fused
// pipeline loops — the Typer-idiom counterpart of the vectorized
// lowering's loops over a selection. Both read the same program, so
// the two backends produce bit-identical rows.

// scalarFn evaluates an int64 value for one row; fr is the pipeline's
// gather frame (nil-safe for expressions over base columns only).
type scalarFn func(i int, fr []int64) int64

// predFn evaluates a boolean for one row.
type predFn func(i int, fr []int64) bool

// u64Fn produces the 64-bit word representation of a value (join keys,
// hash-table payloads, residual comparisons): 32-bit base columns
// zero-extend, 64-bit columns pass through, frame slots are raw words.
type u64Fn func(i int, fr []int64) uint64

// u64Get compiles a column of the pipeline to its word representation
// from its program leaf — the same encoding the vectorized lowering
// uses for keys and payloads (32-bit zero-extension via MapWiden,
// 64-bit passthrough).
func (p *pipe) u64Get(c *catalog.Column) (u64Fn, error) {
	leaf, err := p.Leaf(c)
	if err != nil {
		return nil, err
	}
	switch c32, a, slot := leaf.C32, leaf.A, leaf.Slot; leaf.Code {
	case logical.OpSlot32, logical.OpSlot64:
		return func(i int, fr []int64) uint64 { return uint64(fr[slot]) }, nil
	case logical.OpCol32:
		return func(i int, fr []int64) uint64 { return uint64(uint32(c32[i])) }, nil
	default:
		return func(i int, fr []int64) uint64 { return uint64(a[i]) }, nil
	}
}

// rowFn is one op's per-row closure: a value, a truth value, or a
// string operand.
type rowFn struct {
	v scalarFn
	p predFn
	s logical.Str
}

// val is the op's result as a value (a truth value reads 1 or 0).
func (r rowFn) val() scalarFn {
	if r.v != nil {
		return r.v
	}
	p := r.p
	return func(i int, fr []int64) int64 {
		if p(i, fr) {
			return 1
		}
		return 0
	}
}

// truth is the op's result as a truth value (a value is true when not
// 0).
func (r rowFn) truth() predFn {
	if r.p != nil {
		return r.p
	}
	v := r.v
	return func(i int, fr []int64) bool { return v(i, fr) != 0 }
}

// rowProg maps each op of pr, in post-order, to its closure over the
// closures of its operands, and returns the root's.
func rowProg(pr logical.Prog) rowFn {
	var buf [8]rowFn
	st := buf[:0]
	for k := range pr.Ops {
		n := pr.Ops[k].Arity()
		f := rowOp(&pr.Ops[k], st[len(st)-n:])
		st = append(st[:len(st)-n], f)
	}
	return st[0]
}

// rowOp is op as a closure over its operands' closures in.
func rowOp(op *logical.Op, in []rowFn) rowFn {
	c32, a, b, lit, slot := op.C32, op.A, op.B, op.Lit, op.Slot
	var l, r scalarFn // the operands of arithmetic and comparisons
	if op.Code >= logical.OpAdd && op.Code <= logical.OpGe {
		l, r = in[0].val(), in[1].val()
	}
	switch op.Code {
	case logical.OpCol32:
		return rowFn{v: func(i int, fr []int64) int64 { return int64(c32[i]) }}
	case logical.OpCol64:
		return rowFn{v: func(i int, fr []int64) int64 { return a[i] }}
	case logical.OpSlot32:
		return rowFn{v: func(i int, fr []int64) int64 { return int64(int32(fr[slot])) }}
	case logical.OpSlot64:
		return rowFn{v: func(i int, fr []int64) int64 { return fr[slot] }}
	case logical.OpLit:
		return rowFn{v: func(int, []int64) int64 { return lit }}
	case logical.OpMulCols:
		return rowFn{v: func(i int, fr []int64) int64 { return a[i] * b[i] }}
	case logical.OpRsubCol:
		return rowFn{v: func(i int, fr []int64) int64 { return lit - a[i] }}
	case logical.OpStr:
		return rowFn{s: op.S}
	case logical.OpAdd:
		return rowFn{v: func(i int, fr []int64) int64 { return l(i, fr) + r(i, fr) }}
	case logical.OpSub:
		return rowFn{v: func(i int, fr []int64) int64 { return l(i, fr) - r(i, fr) }}
	case logical.OpMul:
		return rowFn{v: func(i int, fr []int64) int64 { return l(i, fr) * r(i, fr) }}
	case logical.OpEq:
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) == r(i, fr) }}
	case logical.OpNe:
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) != r(i, fr) }}
	case logical.OpLt:
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) < r(i, fr) }}
	case logical.OpLe:
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) <= r(i, fr) }}
	case logical.OpGt:
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) > r(i, fr) }}
	case logical.OpGe:
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) >= r(i, fr) }}
	case logical.OpAnd:
		l, r := in[0].truth(), in[1].truth()
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) && r(i, fr) }}
	case logical.OpOr:
		l, r := in[0].truth(), in[1].truth()
		return rowFn{p: func(i int, fr []int64) bool { return l(i, fr) || r(i, fr) }}
	case logical.OpNot:
		x := in[0].truth()
		return rowFn{p: func(i int, fr []int64) bool { return !x(i, fr) }}
	case logical.OpBetween:
		x, lo, hi, neg := in[0].val(), in[1].val(), in[2].val(), op.Negate
		return rowFn{p: func(i int, fr []int64) bool {
			v := x(i, fr)
			return (v >= lo(i, fr) && v <= hi(i, fr)) != neg
		}}
	case logical.OpIn:
		x, neg := in[0].val(), op.Negate
		items := make([]scalarFn, len(in)-1)
		for j := range items {
			items[j] = in[1+j].val()
		}
		return rowFn{p: func(i int, fr []int64) bool {
			v := x(i, fr)
			for _, it := range items {
				if it(i, fr) == v {
					return !neg
				}
			}
			return neg
		}}
	case logical.OpStrEq, logical.OpStrNe:
		l, r, eq := in[0].s, in[1].s, op.Code == logical.OpStrEq
		return rowFn{p: func(i int, fr []int64) bool { return bytes.Equal(l.At(i), r.At(i)) == eq }}
	case logical.OpStrIn:
		x, neg := in[0].s, op.Negate
		items := make([]logical.Str, len(in)-1)
		for j := range items {
			items[j] = in[1+j].s
		}
		return rowFn{p: func(i int, fr []int64) bool {
			v := x.At(i)
			for _, it := range items {
				if bytes.Equal(v, it.At(i)) {
					return !neg
				}
			}
			return neg
		}}
	}
	panic("compiled: unknown op")
}

// ---------------------------------------------------------------------
// Filter cascade
// ---------------------------------------------------------------------

// bound32/bound64 are inclusive per-column range checks, the bound
// form of the classified ranges (logical.Range). The fused loop applies them per block
// with the branch-free simd range kernels, before any row-level work.
type bound32 struct {
	col    []int32
	lo, hi int32
}

type bound64 struct {
	col    []int64
	lo, hi int64
}

// strEq is an inline string-equality filter (col = 'literal' or
// col <> 'literal') against the column's heap.
type strEq struct {
	heap *storage.StringHeap
	val  []byte
	eq   bool
}

// filt is a pipeline's compiled filter cascade: range bounds first
// (cheapest, most common), then string equalities (checked inline, no
// closure), then the residual conjuncts' programs.
type filt struct {
	b32   []bound32
	b64   []bound64
	strs  []strEq
	preds []predFn
}

// compileFilters binds the pipeline's classified filters
// (logical.Filters) to column views: each range becomes a bound32 or
// bound64, each string filter checks the heap inline, and each
// residual conjunct's program in resid runs as a per-row predicate.
func (p *pipe) compileFilters(resid []logical.Prog) error {
	f := &p.Filters
	for _, r := range f.Ranges {
		c32, c64, err := logical.BaseViews(r.Col)
		if err != nil {
			return err
		}
		if c32 != nil {
			p.filt.b32 = append(p.filt.b32, bound32{col: c32, lo: int32(r.Lo), hi: int32(r.Hi)})
		} else {
			p.filt.b64 = append(p.filt.b64, bound64{col: c64, lo: r.Lo, hi: r.Hi})
		}
	}
	for _, s := range f.Strs {
		p.filt.strs = append(p.filt.strs, strEq{heap: p.Scan.Table.Rel.String(s.Col.Name), val: []byte(s.Val), eq: s.Eq})
	}
	for _, pr := range resid {
		p.filt.preds = append(p.filt.preds, rowProg(pr).truth())
	}
	return nil
}
