package logical

import (
	"cmp"
	"math"
	"slices"

	"paradigms/internal/catalog"
	"paradigms/internal/sql"
	"paradigms/internal/storage"
)

// The expression program: every expression a pipeline evaluates — its
// residual conjuncts (Filters.Residual) and, on the final pipeline,
// its aggregate arguments and projection items — is bound once per
// lowering (BindExprs), by (*Pipeline).Program, into a flat typed
// program. Both lowerings run the same program: internal/compiled maps
// each op to a per-row closure, the vectorized lowering maps each op to
// a loop or tw primitive over a batch's selection. Neither walks SQL
// expression trees, so the two inner loops cannot disagree on what an
// expression means (DESIGN.md §8).
//
// Values are int64. +, − and × wrap modulo 2⁶⁴ (two's complement), and
// so does every sum: on every engine, in the block folds and in the
// sqlcheck oracle alike. A truth value is 1 or 0, and an operand of
// AND, OR or NOT is true when it is not 0.

// OpCode names one op of a Prog.
type OpCode uint8

// Leaves, resolved once when the program is built: OpCol32 and OpCol64
// read a spine base column through its 32-bit view C32 (sign-extended)
// or its 64-bit view A; OpSlot32 and OpSlot64 read frame slot Slot, the
// word a probe gathered, restoring a 32-bit value's sign (it travels
// zero-extended, narrowKey); OpLit is the literal Lit, pre-scaled by
// the binder. Two fused leaves cover the revenue inputs of Q6, Q1.1 and
// every 1 − l_discount: OpMulCols is A[i] × B[i] and OpRsubCol is
// Lit − A[i], over 64-bit spine columns. OpStr is a string operand S: a
// spine string column or a string literal.
//
// Every other op takes the results of the ops before it as operands.
// OpAdd, OpSub and OpMul wrap modulo 2⁶⁴. The six comparisons, AND, OR
// and NOT yield 1 or 0. OpBetween is Lo ≤ X ≤ Hi over its operands X,
// Lo, Hi; OpIn is whether its first operand equals any of the N after
// it; both are inverted when Negate is set. OpStrEq, OpStrNe and OpStrIn
// compare string operands.
const (
	OpCol32 OpCode = iota + 1
	OpCol64
	OpSlot32
	OpSlot64
	OpLit
	OpMulCols
	OpRsubCol
	OpStr
	OpAdd
	OpSub
	OpMul
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpBetween
	OpIn
	OpStrEq
	OpStrNe
	OpStrIn
)

// Op is one op of a Prog.
type Op struct {
	Code   OpCode
	Negate bool   // OpBetween, OpIn, OpStrIn
	N      uint16 // OpIn, OpStrIn: item count
	Slot   int32
	Lit    int64
	C32    []int32
	A, B   []int64
	S      Str
}

// Str is a string operand: a spine string column's heap, or the literal
// Lit when Heap is nil.
type Str struct {
	Heap *storage.StringHeap
	Lit  []byte
}

// At is the operand's value on row i.
func (s Str) At(i int) []byte {
	if s.Heap != nil {
		return s.Heap.Get(i)
	}
	return s.Lit
}

// Arity is the number of operands the op takes: the results of the
// ops before it, the last one on top.
func (o *Op) Arity() int {
	switch {
	case o.Code < OpAdd:
		return 0
	case o.Code == OpNot:
		return 1
	case o.Code == OpBetween:
		return 3
	case o.Code == OpIn || o.Code == OpStrIn:
		return 1 + int(o.N)
	}
	return 2
}

// Prog is an expression bound to one pipeline: its ops in post-order,
// the last one yielding the expression's result.
type Prog struct {
	Ops []Op
}

// Exprs is every expression a decomposition's pipelines evaluate,
// bound to its program. Each lowering maps the programs, and a hybrid
// lowers both backends from one binding.
type Exprs struct {
	// Residual holds each pipeline's residual conjuncts, by pipeline
	// index; nil when no pipeline has one.
	Residual [][]Prog
	// Sink holds the final pipeline's aggregate arguments, by slot (an
	// empty Prog for COUNT, and nil when every slot is COUNT), or a
	// projecting plan's items.
	Sink []Prog
}

// Resid returns pipeline i's residual programs.
func (ex *Exprs) Resid(i int) []Prog {
	if ex.Residual == nil {
		return nil
	}
	return ex.Residual[i]
}

// BindExprs binds every expression of pl's decomposition pipes to its
// program: the residual conjuncts of each pipeline's classified filters
// and the final pipeline's aggregate arguments or projection items. A
// shape the program cannot express fails here, at lowering.
func BindExprs(pl *Plan, pipes []*Pipeline) (Exprs, error) {
	var ex Exprs
	for i, p := range pipes {
		for _, e := range p.Filters.Residual {
			pr, err := p.Program(e)
			if err != nil {
				return Exprs{}, err
			}
			if ex.Residual == nil {
				ex.Residual = make([][]Prog, len(pipes))
			}
			ex.Residual[i] = append(ex.Residual[i], pr)
		}
	}
	final := pipes[len(pipes)-1]
	var err error
	if agg := pl.Agg; agg != nil {
		for j, s := range agg.Aggs {
			if s.Op == OpCount {
				continue
			}
			if ex.Sink == nil {
				ex.Sink = make([]Prog, len(agg.Aggs))
			}
			if ex.Sink[j], err = final.Program(s.Arg); err != nil {
				return Exprs{}, err
			}
		}
		return ex, nil
	}
	ex.Sink = make([]Prog, len(pl.Proj))
	for j, e := range pl.Proj {
		if ex.Sink[j], err = final.Program(e); err != nil {
			return Exprs{}, err
		}
	}
	return ex, nil
}

// binCodes maps a binary SQL operator to its op.
var binCodes = [...]OpCode{
	sql.OpAdd: OpAdd, sql.OpSub: OpSub, sql.OpMul: OpMul,
	sql.OpEq: OpEq, sql.OpNe: OpNe, sql.OpLt: OpLt, sql.OpLe: OpLe, sql.OpGt: OpGt, sql.OpGe: OpGe,
	sql.OpAnd: OpAnd, sql.OpOr: OpOr,
}

// Program binds e, an expression over the pipeline's columns, into its
// program: the one program builder (BindExprs calls it). Column leaves
// resolve once (Leaf), col×col and literal−col over 64-bit spine
// columns fuse into one leaf, and a shape the program cannot express is
// an error here and nowhere else.
func (p *Pipeline) Program(e sql.Expr) (Prog, error) {
	var buf [8]Op // most programs fit; the result is copied out at its size
	ops := buf[:0]
	isStr := func(e sql.Expr) bool { // a string column or literal
		switch x := e.(type) {
		case *sql.StrLit:
			return true
		case *sql.ColRef:
			return x.Col.Type.Kind == catalog.String
		}
		return false
	}
	col64 := func(e sql.Expr) []int64 { // a 64-bit spine column's view, or nil
		ref, ok := e.(*sql.ColRef)
		if !ok || ref.Col.Table != p.Scan.Table {
			return nil
		}
		_, c64, _ := BaseViews(ref.Col)
		return c64
	}
	var emit func(e sql.Expr, str bool) error // str: e must be a string operand
	emit = func(e sql.Expr, str bool) error {
		if s := isStr(e); s != str {
			if s {
				return sql.Errf(e.Pos(), "%s cannot be used as a value", sql.String(e))
			}
			return sql.Errf(e.Pos(), "%s is not a string", sql.String(e))
		}
		var op Op
		var err error // the first error of the operands, emitted before op
		switch x := e.(type) {
		case *sql.NumLit:
			op = Op{Code: OpLit, Lit: x.Val}
		case *sql.DateLit:
			op = Op{Code: OpLit, Lit: int64(x.Days)}
		case *sql.StrLit:
			op = Op{Code: OpStr, S: Str{Lit: []byte(x.Val)}}
		case *sql.ColRef:
			switch {
			case !str:
				op, err = p.Leaf(x.Col)
			case x.Col.Table != p.Scan.Table:
				err = sql.Errf(x.P, "string column %q is not a column of %s", x.Name, p.Scan.Table.Name)
			default:
				op = Op{Code: OpStr, S: Str{Heap: p.Scan.Table.Rel.String(x.Col.Name)}}
			}
		case *sql.Not:
			op, err = Op{Code: OpNot}, emit(x.X, false)
		case *sql.Between:
			op = Op{Code: OpBetween, Negate: x.Negate}
			err = cmp.Or(emit(x.X, false), emit(x.Lo, false), emit(x.Hi, false))
		case *sql.InList:
			s := isStr(x.X)
			op = Op{Code: OpIn, N: uint16(len(x.List)), Negate: x.Negate}
			if s {
				op.Code = OpStrIn
			}
			if err = emit(x.X, s); len(x.List) > math.MaxUint16 {
				err = sql.Errf(x.P, "IN list of %d items is too long", len(x.List))
			}
			for _, item := range x.List {
				err = cmp.Or(err, emit(item, s))
			}
		case *sql.Binary:
			lit, litFirst := x.L.(*sql.NumLit)
			switch a, b := col64(x.L), col64(x.R); {
			case x.Op == sql.OpMul && a != nil && b != nil:
				op = Op{Code: OpMulCols, A: a, B: b}
			case x.Op == sql.OpSub && litFirst && b != nil:
				op = Op{Code: OpRsubCol, Lit: lit.Val, A: b}
			case (x.Op == sql.OpEq || x.Op == sql.OpNe) && (isStr(x.L) || isStr(x.R)):
				op = Op{Code: OpStrEq}
				if x.Op == sql.OpNe {
					op.Code = OpStrNe
				}
				err = cmp.Or(emit(x.L, true), emit(x.R, true))
			case int(x.Op) < len(binCodes) && binCodes[x.Op] != 0:
				op, err = Op{Code: binCodes[x.Op]}, cmp.Or(emit(x.L, false), emit(x.R, false))
			default:
				err = sql.Errf(x.P, "unsupported expression %s", sql.String(e))
			}
		default:
			err = sql.Errf(e.Pos(), "unsupported expression %s", sql.String(e))
		}
		ops = append(ops, op)
		return err
	}
	if err := emit(e, false); err != nil {
		return Prog{}, err
	}
	return Prog{Ops: slices.Clone(ops)}, nil
}

// Leaf resolves a numeric column of the pipeline to its program leaf:
// a spine base column's machine view, or the frame slot a probe
// gathers it into. Key and payload getters read the same leaf.
func (p *Pipeline) Leaf(c *catalog.Column) (Op, error) {
	if slot := p.Slot(c); slot >= 0 {
		if narrowKey(c) {
			return Op{Code: OpSlot32, Slot: int32(slot)}, nil
		}
		return Op{Code: OpSlot64, Slot: int32(slot)}, nil
	}
	c32, c64, err := BaseViews(c)
	switch {
	case err != nil:
		return Op{}, err
	case c32 != nil:
		return Op{Code: OpCol32, C32: c32}, nil
	}
	return Op{Code: OpCol64, A: c64}, nil
}
