package logical

import (
	"bytes"

	"paradigms/internal/catalog"
	"paradigms/internal/plan"
	"paradigms/internal/sql"
	"paradigms/internal/storage"
	"paradigms/internal/tw"
	"paradigms/internal/types"
)

// The per-worker expression compiler: bound SQL expressions become
// closures over tw primitives evaluating derived vectors for a batch.
// The common fixed-point shapes compile to exactly the primitive
// sequences the hand-written plans use (col*col → MapMulCols, literal -
// col → MapRsubConst, so Q6's revenue is the same fused multiply-sum);
// everything else falls back to generic vector loops.

// vec64 evaluates an int64 vector of length K for the current batch.
type vec64 func(b *plan.Batch) []int64

// vecI64 compiles an expression into a vector evaluator within the
// given pipeline.
func (w *worker) vecI64(ps *Pipeline, e sql.Expr) vec64 {
	switch x := e.(type) {
	case *sql.NumLit:
		return w.constVec(x.Val)
	case *sql.DateLit:
		return w.constVec(int64(x.Days))
	case *sql.ColRef:
		return w.colVec(ps, x.Col)
	case *sql.Binary:
		switch x.Op {
		case sql.OpMul:
			if f := w.mulColsFast(ps, x); f != nil {
				return f
			}
			l, r := w.vecI64(ps, x.L), w.vecI64(ps, x.R)
			out := w.bufs.I64()
			return func(b *plan.Batch) []int64 {
				tw.MapMul(l(b), r(b), b.K, out)
				return out
			}
		case sql.OpSub:
			if f := w.rsubConstFast(ps, x); f != nil {
				return f
			}
			l, r := w.vecI64(ps, x.L), w.vecI64(ps, x.R)
			out := w.bufs.I64()
			return func(b *plan.Batch) []int64 {
				lv, rv := l(b), r(b)
				for i := 0; i < b.K; i++ {
					out[i] = lv[i] - rv[i]
				}
				return out
			}
		case sql.OpAdd:
			l, r := w.vecI64(ps, x.L), w.vecI64(ps, x.R)
			out := w.bufs.I64()
			return func(b *plan.Batch) []int64 {
				lv, rv := l(b), r(b)
				for i := 0; i < b.K; i++ {
					out[i] = lv[i] + rv[i]
				}
				return out
			}
		}
	}
	panic("logical: unsupported value expression " + sql.String(e))
}

func (w *worker) constVec(v int64) vec64 {
	out := w.bufs.I64()
	for i := range out {
		out[i] = v
	}
	return func(*plan.Batch) []int64 { return out }
}

// colVec materializes a column through the batch selection.
func (w *worker) colVec(ps *Pipeline, c *catalog.Column) vec64 {
	if slot := ps.Slot(c); slot >= 0 {
		// A gathered buffer holds the column's key words: 32-bit
		// values zero-extended, so their sign is restored here.
		buf := w.colBuf[ps][slot]
		out := w.bufs.I64()
		narrow := narrowKey(c)
		return func(b *plan.Batch) []int64 {
			for i := 0; i < b.K; i++ {
				out[i] = int64(buf[i])
				if narrow {
					out[i] = int64(int32(buf[i]))
				}
			}
			return out
		}
	}
	rel := ps.Scan.Table.Rel
	switch c.Type.Kind {
	case catalog.Numeric:
		return fetch64(w, rel.Numeric(c.Name))
	case catalog.Int64:
		return fetch64(w, rel.Int64(c.Name))
	case catalog.Int32:
		return fetch32(w, rel.Int32(c.Name))
	case catalog.Date:
		return fetch32(w, rel.Date(c.Name))
	}
	panic("logical: column " + c.Name + " is not numeric")
}

func fetch64[T ~int64](w *worker, col []T) vec64 {
	out := w.bufs.I64()
	return func(b *plan.Batch) []int64 {
		win := col[b.Base : b.Base+b.N]
		if b.Sel == nil {
			tw.MapCopyI64(win, b.K, out)
		} else {
			tw.FetchI64(win, b.Sel[:b.K], out)
		}
		return out
	}
}

func fetch32[T ~int32](w *worker, col []T) vec64 {
	out := w.bufs.I64()
	return func(b *plan.Batch) []int64 {
		win := col[b.Base : b.Base+b.N]
		if b.Sel == nil {
			for i := 0; i < b.K; i++ {
				out[i] = int64(win[i])
			}
		} else {
			for i, k := range b.Sel[:b.K] {
				out[i] = int64(win[k])
			}
		}
		return out
	}
}

// mulColsFast compiles col*col over two 64-bit base columns to the
// fused MapMulCols primitive (Q6's and Q1.1's revenue input). The
// double type switch instantiates the generic primitive per column-type
// pair.
func (w *worker) mulColsFast(ps *Pipeline, x *sql.Binary) vec64 {
	ln, li, lok := base64Col(ps, x.L)
	rn, ri, rok := base64Col(ps, x.R)
	if !lok || !rok {
		return nil
	}
	switch {
	case ln != nil && rn != nil:
		return mulFast(w, ln, rn)
	case ln != nil:
		return mulFast(w, ln, ri)
	case rn != nil:
		return mulFast(w, li, rn)
	default:
		return mulFast(w, li, ri)
	}
}

func mulFast[T ~int64, U ~int64](w *worker, l []T, r []U) vec64 {
	out := w.bufs.I64()
	return func(b *plan.Batch) []int64 {
		lw := l[b.Base : b.Base+b.N]
		rw := r[b.Base : b.Base+b.N]
		if b.Sel == nil {
			tw.MapMulCols(lw, rw, b.K, out)
		} else {
			tw.MapMulColsSel(lw, rw, b.Sel[:b.K], out)
		}
		return out
	}
}

// rsubConstFast compiles literal-col over a 64-bit base column to
// MapRsubConst (the 1 - l_discount of every revenue expression).
func (w *worker) rsubConstFast(ps *Pipeline, x *sql.Binary) vec64 {
	lit, ok := x.L.(*sql.NumLit)
	if !ok {
		return nil
	}
	cn, ci, ok := base64Col(ps, x.R)
	if !ok {
		return nil
	}
	if cn != nil {
		return rsubFast(w, cn, lit.Val)
	}
	return rsubFast(w, ci, lit.Val)
}

func rsubFast[T ~int64](w *worker, col []T, c int64) vec64 {
	out := w.bufs.I64()
	return func(b *plan.Batch) []int64 {
		win := col[b.Base : b.Base+b.N]
		if b.Sel == nil {
			tw.MapRsubConst(win, c, b.K, out)
		} else {
			tw.MapRsubConstSel(win, c, b.Sel[:b.K], out)
		}
		return out
	}
}

// base64Col returns the typed slice of a 64-bit-wide base column
// reference of the pipeline's spine table (exactly one of the two
// returned slices is non-nil on success).
func base64Col(ps *Pipeline, e sql.Expr) ([]types.Numeric, []int64, bool) {
	ref, ok := e.(*sql.ColRef)
	if !ok || ref.Col.Table != ps.Scan.Table {
		return nil, nil, false
	}
	rel := ps.Scan.Table.Rel
	switch ref.Col.Type.Kind {
	case catalog.Numeric:
		return rel.Numeric(ref.Col.Name), nil, true
	case catalog.Int64:
		return nil, rel.Int64(ref.Col.Name), true
	}
	return nil, nil, false
}

// ---------------------------------------------------------------------
// Filter predicates
// ---------------------------------------------------------------------

// filterPreds maps the pipeline's classified filters onto a selection
// cascade: a string equality on the dense string primitive (placed
// first, as it has no selection-consuming form), then each column's
// range on internal/simd's range kernels — the same kernels as the
// compiled backend's block stage — then the other string filters and
// the residual conjuncts row by row.
func (w *worker) filterPreds(ps *Pipeline) []plan.Pred {
	f := &ps.Filters
	if f.RejectAll {
		return []plan.Pred{{
			Dense:  func(int, int, []int32) int { return 0 },
			Sparse: func(int, int, []int32, []int32) int { return 0 },
		}}
	}
	rel := ps.Scan.Table.Rel
	var preds []plan.Pred
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
		heap, val, eq := rel.String(s.Col.Name), []byte(s.Val), s.Eq
		preds = append(preds, rowPred(func(row int) bool { return bytes.Equal(heap.Get(row), val) == eq }))
	}
	for _, e := range f.Residual {
		preds = append(preds, genericPred(ps, e))
	}
	return preds
}

// genericPred evaluates an arbitrary single-table predicate row by row
// (IN lists, OR, NOT, string inequality, arithmetic comparisons). It is
// the slow path; the planner's pushdown keeps it off the hot shapes.
// The expression was vetted by validateRowPred at lowering time, so
// rowEval cannot fail here.
func genericPred(ps *Pipeline, f sql.Expr) plan.Pred {
	rel := ps.Scan.Table.Rel
	return rowPred(func(row int) bool {
		v, err := rowEval(f, rel, row)
		if err != nil {
			panic(err) // unreachable: validateRowPred admitted the shape
		}
		return v != 0
	})
}

// rowPred selects the rows of a batch that pass test, one row at a
// time.
func rowPred(test func(row int) bool) plan.Pred {
	return plan.Pred{
		Dense: func(base, n int, res []int32) int {
			k := 0
			for i := 0; i < n; i++ {
				if test(base + i) {
					res[k] = int32(i)
					k++
				}
			}
			return k
		},
		Sparse: func(base, n int, sel, res []int32) int {
			k := 0
			for _, i := range sel {
				if test(base + int(i)) {
					res[k] = i
					k++
				}
			}
			return k
		},
	}
}

// rowEval recursively evaluates an expression for one base-table row.
// Strings evaluate structurally — equality and IN between string
// columns and literals — at any nesting depth, so NOT/OR around a
// string predicate work like any other predicate.
func rowEval(e sql.Expr, rel *storage.Relation, row int) (int64, error) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch x := e.(type) {
	case *sql.NumLit:
		return x.Val, nil
	case *sql.DateLit:
		return int64(x.Days), nil
	case *sql.ColRef:
		if v, ok := baseValue(rel, x.Col, row); ok {
			return v, nil
		}
		return 0, sql.Errf(x.P, "cannot evaluate column %q here", x.Name)
	case *sql.Not:
		v, err := rowEval(x.X, rel, row)
		if err != nil {
			return 0, err
		}
		return b2i(v == 0), nil
	case *sql.Between:
		v, err := rowEval(x.X, rel, row)
		if err != nil {
			return 0, err
		}
		lo, err := rowEval(x.Lo, rel, row)
		if err != nil {
			return 0, err
		}
		hi, err := rowEval(x.Hi, rel, row)
		if err != nil {
			return 0, err
		}
		return b2i((v >= lo && v <= hi) != x.Negate), nil
	case *sql.InList:
		if sv, ok := strValue(x.X, rel, row); ok {
			found := false
			for _, l := range x.List {
				lv, ok := strValue(l, rel, row)
				if !ok {
					return 0, sql.Errf(l.Pos(), "cannot evaluate %s here", sql.String(l))
				}
				if bytes.Equal(sv, lv) {
					found = true
					break
				}
			}
			return b2i(found != x.Negate), nil
		}
		v, err := rowEval(x.X, rel, row)
		if err != nil {
			return 0, err
		}
		found := false
		for _, l := range x.List {
			lv, err := rowEval(l, rel, row)
			if err != nil {
				return 0, err
			}
			if lv == v {
				found = true
				break
			}
		}
		return b2i(found != x.Negate), nil
	case *sql.Binary:
		if x.Op == sql.OpEq || x.Op == sql.OpNe {
			if lv, ok := strValue(x.L, rel, row); ok {
				rv, ok := strValue(x.R, rel, row)
				if !ok {
					return 0, sql.Errf(x.P, "cannot evaluate %s here", sql.String(x.R))
				}
				return b2i(bytes.Equal(lv, rv) == (x.Op == sql.OpEq)), nil
			}
		}
		l, err := rowEval(x.L, rel, row)
		if err != nil {
			return 0, err
		}
		if x.Op == sql.OpAnd && l == 0 {
			return 0, nil
		}
		if x.Op == sql.OpOr && l != 0 {
			return 1, nil
		}
		r, err := rowEval(x.R, rel, row)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case sql.OpAdd:
			return l + r, nil
		case sql.OpSub:
			return l - r, nil
		case sql.OpMul:
			return l * r, nil
		case sql.OpEq:
			return b2i(l == r), nil
		case sql.OpNe:
			return b2i(l != r), nil
		case sql.OpLt:
			return b2i(l < r), nil
		case sql.OpLe:
			return b2i(l <= r), nil
		case sql.OpGt:
			return b2i(l > r), nil
		case sql.OpGe:
			return b2i(l >= r), nil
		case sql.OpAnd, sql.OpOr:
			return b2i(r != 0), nil
		}
	}
	return 0, sql.Errf(e.Pos(), "cannot evaluate %s", sql.String(e))
}

// strValue resolves a string-typed operand (string column or literal)
// for one row.
func strValue(e sql.Expr, rel *storage.Relation, row int) ([]byte, bool) {
	switch x := e.(type) {
	case *sql.StrLit:
		return []byte(x.Val), true
	case *sql.ColRef:
		if x.Col.Type.Kind == catalog.String {
			return rel.String(x.Col.Name).Get(row), true
		}
	}
	return nil, false
}

// validateRowPred vets a pushed-down predicate against the shapes
// rowEval supports, at lowering time — a generic predicate must never
// fail (and thus silently drop rows) during execution.
func validateRowPred(e sql.Expr) error {
	switch x := e.(type) {
	case *sql.NumLit, *sql.DateLit:
		return nil
	case *sql.ColRef:
		switch x.Col.Type.Kind {
		case catalog.String, catalog.Byte:
			return sql.Errf(x.P, "%s column %q cannot be used as a value", x.Col.Type.Kind, x.Name)
		}
		return nil
	case *sql.Not:
		return validateRowPred(x.X)
	case *sql.Between:
		for _, sub := range []sql.Expr{x.X, x.Lo, x.Hi} {
			if err := validateRowPred(sub); err != nil {
				return err
			}
		}
		return nil
	case *sql.InList:
		if _, isStr := strOperand(x.X); isStr {
			for _, l := range x.List {
				if _, ok := strOperand(l); !ok {
					return sql.Errf(l.Pos(), "IN list over a string column needs string literals")
				}
			}
			return nil
		}
		for _, sub := range append([]sql.Expr{x.X}, x.List...) {
			if err := validateRowPred(sub); err != nil {
				return err
			}
		}
		return nil
	case *sql.Binary:
		if x.Op == sql.OpEq || x.Op == sql.OpNe {
			_, lStr := strOperand(x.L)
			_, rStr := strOperand(x.R)
			if lStr || rStr {
				if lStr && rStr {
					return nil
				}
				return sql.Errf(x.P, "cannot compare %s with %s", sql.String(x.L), sql.String(x.R))
			}
		}
		if err := validateRowPred(x.L); err != nil {
			return err
		}
		return validateRowPred(x.R)
	}
	return sql.Errf(e.Pos(), "unsupported predicate %s", sql.String(e))
}

// strOperand reports whether the expression is a string column or
// literal (without evaluating it).
func strOperand(e sql.Expr) (sql.Expr, bool) {
	switch x := e.(type) {
	case *sql.StrLit:
		return e, true
	case *sql.ColRef:
		if x.Col.Type.Kind == catalog.String {
			return e, true
		}
	}
	return nil, false
}

// baseValue reads one scalar from a base column.
func baseValue(rel *storage.Relation, c *catalog.Column, row int) (int64, bool) {
	switch c.Type.Kind {
	case catalog.Int32:
		return int64(rel.Int32(c.Name)[row]), true
	case catalog.Int64:
		return rel.Int64(c.Name)[row], true
	case catalog.Numeric:
		return int64(rel.Numeric(c.Name)[row]), true
	case catalog.Date:
		return int64(rel.Date(c.Name)[row]), true
	}
	return 0, false
}
