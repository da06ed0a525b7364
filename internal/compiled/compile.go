package compiled

import (
	"bytes"

	"paradigms/internal/catalog"
	"paradigms/internal/logical"
	"paradigms/internal/sql"
	"paradigms/internal/storage"
)

// The row-level expression compiler: bound SQL expressions become
// closures specialized by column type and scale, evaluated one tuple at
// a time inside the fused pipeline loops — the Typer-idiom counterpart
// of internal/logical's vector compiler. Value representation matches
// the vectorized lowering exactly: base 32-bit columns sign-extend,
// columns gathered through a hash probe travel as zero-extended 64-bit
// words, so the two backends produce bit-identical rows.

// scalarFn evaluates an int64 value for one row; fr is the pipeline's
// gather frame (nil-safe for expressions over base columns only).
type scalarFn func(i int, fr []int64) int64

// predFn evaluates a boolean for one row.
type predFn func(i int, fr []int64) bool

// u64Fn produces the 64-bit word representation of a value (join keys,
// hash-table payloads, residual comparisons): 32-bit base columns
// zero-extend, 64-bit columns pass through, frame slots are raw words.
type u64Fn func(i int, fr []int64) uint64

// u64Get compiles a value source to its word representation — the same
// encoding the vectorized lowering uses for keys and payloads (32-bit
// zero-extension via MapWiden, 64-bit passthrough).
func (p *pipe) u64Get(v valRef) (u64Fn, error) {
	if v.base == nil {
		slot := v.slot
		return func(i int, fr []int64) uint64 { return uint64(fr[slot]) }, nil
	}
	c32, c64, err := logical.BaseViews(v.base)
	if err != nil {
		return nil, err
	}
	if c32 != nil {
		return func(i int, fr []int64) uint64 { return uint64(uint32(c32[i])) }, nil
	}
	return func(i int, fr []int64) uint64 { return uint64(c64[i]) }, nil
}

// ---------------------------------------------------------------------
// Scalar expressions
// ---------------------------------------------------------------------

// scalar compiles a value expression into a per-row closure within the
// pipeline. Base column reads sign-extend (like the vectorized fetch
// primitives); frame slots are read as the stored words. The shapes
// baseView matches compile to one closure over the column views.
func (p *pipe) scalar(e sql.Expr) (scalarFn, error) {
	if v := p.baseView(e); v.kind != 0 {
		return v.fn(), nil
	}
	switch x := e.(type) {
	case *sql.NumLit:
		v := x.Val
		return func(int, []int64) int64 { return v }, nil
	case *sql.DateLit:
		v := int64(x.Days)
		return func(int, []int64) int64 { return v }, nil
	case *sql.ColRef:
		return p.slotScalar(x.Col)
	case *sql.Binary:
		switch x.Op {
		case sql.OpMul:
			return p.binScalar(x, func(l, r int64) int64 { return l * r })
		case sql.OpAdd:
			return p.binScalar(x, func(l, r int64) int64 { return l + r })
		case sql.OpSub:
			return p.binScalar(x, func(l, r int64) int64 { return l - r })
		}
	}
	return nil, sql.Errf(e.Pos(), "compiled: unsupported value expression %s", sql.String(e))
}

func (p *pipe) binScalar(x *sql.Binary, op func(l, r int64) int64) (scalarFn, error) {
	l, err := p.scalar(x.L)
	if err != nil {
		return nil, err
	}
	r, err := p.scalar(x.R)
	if err != nil {
		return nil, err
	}
	return func(i int, fr []int64) int64 { return op(l(i, fr), r(i, fr)) }, nil
}

// slotScalar reads a column baseView does not: a gathered frame slot,
// or the error for a base column with no machine view.
func (p *pipe) slotScalar(c *catalog.Column) (scalarFn, error) {
	src := p.resolve(c)
	if src.base != nil {
		_, _, err := logical.BaseViews(c)
		return nil, err
	}
	// A gathered slot holds the column's key word: a 32-bit value
	// zero-extended, so its sign is restored here.
	slot := src.slot
	if c.Type.Kind == catalog.Int32 || c.Type.Kind == catalog.Date {
		return func(i int, fr []int64) int64 { return int64(int32(fr[slot])) }, nil
	}
	return func(i int, fr []int64) int64 { return fr[slot] }, nil
}

// viewKind is the shape of a colView.
type viewKind uint8

const (
	viewCol32 viewKind = 1 + iota // c32[i], sign-extended
	viewCol64                     // a[i]
	viewMul                       // a[i] * b[i] (the revenue input of Q6 and Q1.1)
	viewRsub                      // lit - a[i] (the 1 - l_discount of every revenue expression)
)

// colView is a value expression read straight from the spine's base
// columns: the shapes scalar fuses into one closure, and the inputs a
// block fold reduces (fold.go).
type colView struct {
	kind viewKind // 0: no view
	c32  []int32
	a, b []int64
	lit  int64 // pre-scaled by the binder
}

// baseView matches e against the fused shapes: a base column, col*col
// over two 64-bit base columns, or literal-col over a 64-bit base
// column. It returns the zero colView for anything else.
func (p *pipe) baseView(e sql.Expr) colView {
	switch x := e.(type) {
	case *sql.ColRef:
		src := p.resolve(x.Col)
		if src.base == nil {
			return colView{}
		}
		c32, c64, err := logical.BaseViews(src.base)
		switch {
		case err != nil:
			return colView{}
		case c32 != nil:
			return colView{kind: viewCol32, c32: c32}
		}
		return colView{kind: viewCol64, a: c64}
	case *sql.Binary:
		switch x.Op {
		case sql.OpMul:
			if a, b := p.base64Col(x.L), p.base64Col(x.R); a != nil && b != nil {
				return colView{kind: viewMul, a: a, b: b}
			}
		case sql.OpSub:
			if lit, ok := x.L.(*sql.NumLit); ok {
				if a := p.base64Col(x.R); a != nil {
					return colView{kind: viewRsub, a: a, lit: lit.Val}
				}
			}
		}
	}
	return colView{}
}

// fn compiles the view to its per-row closure.
func (v colView) fn() scalarFn {
	c32, a, b, lit := v.c32, v.a, v.b, v.lit
	switch v.kind {
	case viewCol32:
		return func(i int, fr []int64) int64 { return int64(c32[i]) }
	case viewCol64:
		return func(i int, fr []int64) int64 { return a[i] }
	case viewMul:
		return func(i int, fr []int64) int64 { return a[i] * b[i] }
	}
	return func(i int, fr []int64) int64 { return lit - a[i] }
}

// base64Col returns the machine view of a 64-bit-wide base column
// reference of the pipeline's spine, or nil.
func (p *pipe) base64Col(e sql.Expr) []int64 {
	ref, ok := e.(*sql.ColRef)
	if !ok || ref.Col.Table != p.Scan.Table {
		return nil
	}
	_, c64, _ := logical.BaseViews(ref.Col)
	return c64
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
// closure), then generic predicates.
type filt struct {
	b32   []bound32
	b64   []bound64
	strs  []strEq
	preds []predFn
}

// compileFilters binds the pipeline's classified filters
// (logical.Filters) to column views: each range becomes a bound32 or
// bound64, each string filter checks the heap inline, and each
// residual conjunct compiles to a per-row predicate.
func (p *pipe) compileFilters() error {
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
	for _, e := range f.Residual {
		pred, err := p.pred(e)
		if err != nil {
			return err
		}
		p.filt.preds = append(p.filt.preds, pred)
	}
	return nil
}

// ---------------------------------------------------------------------
// Generic predicates
// ---------------------------------------------------------------------

// pred compiles an arbitrary predicate (OR, NOT, IN lists, string
// comparisons, arithmetic comparisons) to a per-row closure — the
// compiled counterpart of the vectorized lowering's generic row
// predicate, covering the same expression shapes.
func (p *pipe) pred(e sql.Expr) (predFn, error) {
	switch x := e.(type) {
	case *sql.Not:
		inner, err := p.pred(x.X)
		if err != nil {
			return nil, err
		}
		return func(i int, fr []int64) bool { return !inner(i, fr) }, nil
	case *sql.Between:
		v, err := p.scalar(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := p.scalar(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := p.scalar(x.Hi)
		if err != nil {
			return nil, err
		}
		neg := x.Negate
		return func(i int, fr []int64) bool {
			val := v(i, fr)
			return (val >= lo(i, fr) && val <= hi(i, fr)) != neg
		}, nil
	case *sql.InList:
		return p.inPred(x)
	case *sql.Binary:
		switch x.Op {
		case sql.OpAnd:
			l, err := p.pred(x.L)
			if err != nil {
				return nil, err
			}
			r, err := p.pred(x.R)
			if err != nil {
				return nil, err
			}
			return func(i int, fr []int64) bool { return l(i, fr) && r(i, fr) }, nil
		case sql.OpOr:
			l, err := p.pred(x.L)
			if err != nil {
				return nil, err
			}
			r, err := p.pred(x.R)
			if err != nil {
				return nil, err
			}
			return func(i int, fr []int64) bool { return l(i, fr) || r(i, fr) }, nil
		case sql.OpEq, sql.OpNe:
			if pr, ok, err := p.strEqPred(x); ok || err != nil {
				return pr, err
			}
			return p.cmpPred(x)
		case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return p.cmpPred(x)
		}
	}
	return nil, sql.Errf(e.Pos(), "compiled: unsupported predicate %s", sql.String(e))
}

func (p *pipe) cmpPred(x *sql.Binary) (predFn, error) {
	l, err := p.scalar(x.L)
	if err != nil {
		return nil, err
	}
	r, err := p.scalar(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case sql.OpEq:
		return func(i int, fr []int64) bool { return l(i, fr) == r(i, fr) }, nil
	case sql.OpNe:
		return func(i int, fr []int64) bool { return l(i, fr) != r(i, fr) }, nil
	case sql.OpLt:
		return func(i int, fr []int64) bool { return l(i, fr) < r(i, fr) }, nil
	case sql.OpLe:
		return func(i int, fr []int64) bool { return l(i, fr) <= r(i, fr) }, nil
	case sql.OpGt:
		return func(i int, fr []int64) bool { return l(i, fr) > r(i, fr) }, nil
	case sql.OpGe:
		return func(i int, fr []int64) bool { return l(i, fr) >= r(i, fr) }, nil
	}
	panic("compiled: not a comparison")
}

// strGet resolves a string operand (string column of the spine, or
// literal) to a per-row byte getter.
func (p *pipe) strGet(e sql.Expr) (func(i int) []byte, bool) {
	switch x := e.(type) {
	case *sql.StrLit:
		v := []byte(x.Val)
		return func(int) []byte { return v }, true
	case *sql.ColRef:
		if x.Col.Type.Kind == catalog.String && x.Col.Table == p.Scan.Table {
			heap := p.Scan.Table.Rel.String(x.Col.Name)
			return func(i int) []byte { return heap.Get(i) }, true
		}
	}
	return nil, false
}

// strEqPred recognizes string equality/inequality between a string
// column and a literal (or two string columns of the spine).
func (p *pipe) strEqPred(x *sql.Binary) (predFn, bool, error) {
	l, lok := p.strGet(x.L)
	r, rok := p.strGet(x.R)
	if !lok && !rok {
		return nil, false, nil
	}
	if !lok || !rok {
		return nil, true, sql.Errf(x.P, "cannot compare %s with %s", sql.String(x.L), sql.String(x.R))
	}
	eq := x.Op == sql.OpEq
	return func(i int, fr []int64) bool { return bytes.Equal(l(i), r(i)) == eq }, true, nil
}

// inPred compiles x [NOT] IN (...) over strings or numeric values.
func (p *pipe) inPred(x *sql.InList) (predFn, error) {
	if get, isStr := p.strGet(x.X); isStr {
		var lits [][]byte
		for _, l := range x.List {
			s, ok := l.(*sql.StrLit)
			if !ok {
				return nil, sql.Errf(l.Pos(), "IN list over a string column needs string literals")
			}
			lits = append(lits, []byte(s.Val))
		}
		neg := x.Negate
		return func(i int, fr []int64) bool {
			v := get(i)
			for _, l := range lits {
				if bytes.Equal(v, l) {
					return !neg
				}
			}
			return neg
		}, nil
	}
	v, err := p.scalar(x.X)
	if err != nil {
		return nil, err
	}
	items := make([]scalarFn, len(x.List))
	for i, l := range x.List {
		if items[i], err = p.scalar(l); err != nil {
			return nil, err
		}
	}
	neg := x.Negate
	return func(i int, fr []int64) bool {
		val := v(i, fr)
		for _, it := range items {
			if it(i, fr) == val {
				return !neg
			}
		}
		return neg
	}, nil
}
