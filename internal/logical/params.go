package logical

import (
	"fmt"
	"strconv"

	"paradigms/internal/catalog"
	"paradigms/internal/sql"
	"paradigms/internal/types"
)

// BindArgs resolves the plan's parameter placeholders against one
// argument binding, returning an executable plan. The result is a
// copy-on-write clone: every expression tree containing a placeholder
// is rebuilt with the placeholder replaced by a literal of the bound
// value (already in raw units — the binder typed each slot like a
// coerced literal), while untouched subtrees, the aggregation layout,
// sort keys, and all catalog references are shared with the template.
// The template itself is never mutated, so one cached plan can be
// bound and executed concurrently from many clients. A plan without
// parameters binds to itself.
func (pl *Plan) BindArgs(args []int64) (*Plan, error) {
	if len(args) != len(pl.Params) {
		return nil, fmt.Errorf("logical: statement wants %d parameter(s), got %d", len(pl.Params), len(args))
	}
	if len(pl.Params) == 0 {
		return pl, nil
	}
	cp := *pl
	cp.Params, cp.ParamConds = nil, nil // the clone holds no placeholders
	lookup := func(e sql.Expr) (int64, bool) {
		if p, ok := e.(*sql.Param); ok {
			return args[p.Idx], true
		}
		return 0, false
	}
	for _, cond := range pl.ParamConds {
		v, isBool, err := evalScalar(cond, lookup)
		if err != nil {
			return nil, err
		}
		if !isBool {
			return nil, sql.Errf(cond.Pos(), "constant conjunct %s is not a predicate", sql.String(cond))
		}
		if v == 0 {
			cp.AlwaysFalse = true
		}
	}
	cp.Root = bindNode(pl.Root, args)
	if pl.Agg != nil {
		agg := *pl.Agg
		agg.Aggs = make([]AggSpec, len(pl.Agg.Aggs))
		for i, s := range pl.Agg.Aggs {
			s.Arg = bindExpr(s.Arg, args)
			s.Src = bindExpr(s.Src, args)
			agg.Aggs[i] = s
		}
		cp.Agg = &agg
	}
	if len(pl.Proj) > 0 {
		cp.Proj = make([]sql.Expr, len(pl.Proj))
		for i, e := range pl.Proj {
			cp.Proj[i] = bindExpr(e, args)
		}
	}
	cp.Having = bindExpr(pl.Having, args)
	return &cp, nil
}

// BindTexts parses argument texts (one per parameter, in placeholder
// order) into the raw values BindArgs takes, using each slot's bound
// type — the argument surface of sqlsh's \execute and the service's
// prepared-execution API.
func (pl *Plan) BindTexts(args []string) ([]int64, error) {
	if len(args) != len(pl.Params) {
		return nil, fmt.Errorf("logical: statement wants %d parameter(s), got %d", len(pl.Params), len(args))
	}
	if len(args) == 0 {
		return nil, nil
	}
	vals := make([]int64, len(args))
	for i, a := range args {
		v, err := sql.ParseDatum(a, pl.Params[i])
		if err != nil {
			return nil, fmt.Errorf("logical: parameter ?%d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}

// bindNode substitutes arguments through the join tree's scan filters,
// sharing unchanged nodes.
func bindNode(n Node, args []int64) Node {
	switch x := n.(type) {
	case *Scan:
		changed := false
		fs := make([]sql.Expr, len(x.Filters))
		for i, f := range x.Filters {
			fs[i] = bindExpr(f, args)
			if fs[i] != f {
				changed = true
			}
		}
		if !changed {
			return x
		}
		cp := *x
		cp.Filters = fs
		return &cp
	case *Join:
		b, p := bindNode(x.Build, args), bindNode(x.Probe, args)
		if b == x.Build && p == x.Probe {
			return x
		}
		cp := *x
		cp.Build, cp.Probe = b, p
		return &cp
	}
	return n
}

// bindExpr replaces each placeholder with a literal of its bound value,
// copying only the spine of trees that actually contain one. Both
// occurrences of an expression (an aggregate's Arg and Src, HAVING vs
// a hidden slot) substitute identically, so structural Equal matching
// keeps working on the bound plan.
func bindExpr(e sql.Expr, args []int64) sql.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *sql.Param:
		v := args[x.Idx]
		if x.Typ.Kind == catalog.Date {
			return &sql.DateLit{P: x.P, Text: types.Date(v).String(), Days: int32(v)}
		}
		return &sql.NumLit{P: x.P, Text: strconv.FormatInt(v, 10), Val: v, Typ: x.Typ}
	case *sql.Binary:
		l, r := bindExpr(x.L, args), bindExpr(x.R, args)
		if l == x.L && r == x.R {
			return x
		}
		cp := *x
		cp.L, cp.R = l, r
		return &cp
	case *sql.Not:
		in := bindExpr(x.X, args)
		if in == x.X {
			return x
		}
		cp := *x
		cp.X = in
		return &cp
	case *sql.Between:
		v, lo, hi := bindExpr(x.X, args), bindExpr(x.Lo, args), bindExpr(x.Hi, args)
		if v == x.X && lo == x.Lo && hi == x.Hi {
			return x
		}
		cp := *x
		cp.X, cp.Lo, cp.Hi = v, lo, hi
		return &cp
	case *sql.InList:
		v := bindExpr(x.X, args)
		changed := v != x.X
		list := make([]sql.Expr, len(x.List))
		for i, l := range x.List {
			list[i] = bindExpr(l, args)
			if list[i] != l {
				changed = true
			}
		}
		if !changed {
			return x
		}
		cp := *x
		cp.X, cp.List = v, list
		return &cp
	case *sql.Agg:
		arg := bindExpr(x.Arg, args)
		if arg == x.Arg {
			return x
		}
		cp := *x
		cp.Arg = arg
		return &cp
	}
	return e
}
