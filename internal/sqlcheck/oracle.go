package sqlcheck

import (
	"bytes"
	"fmt"
	"sort"

	"paradigms/internal/catalog"
	"paradigms/internal/sql"
	"paradigms/internal/storage"
)

// Oracle evaluates a SQL text naively — nested hash joins in FROM
// order, a full re-evaluation of the WHERE conjunction per joined
// tuple, map-based grouping, interpreted expressions — sharing only the
// parser and binder with the engines, none of the planner rewrites or
// execution machinery. Its result rows (same layout as
// logical.Result.Rows) are the trusted side of the differential
// harness.
func Oracle(db *storage.Database, text string) ([][]int64, error) {
	sel, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := sql.Bind(sel, catalog.For(db)); err != nil {
		return nil, err
	}
	ev := &oracle{sel: sel, tableIdx: map[*catalog.Table]int{}}
	for i, f := range sel.From {
		ev.tables = append(ev.tables, f.Table)
		ev.tableIdx[f.Table] = i
	}
	tuples, err := ev.join()
	if err != nil {
		return nil, err
	}
	if sel.Grouped {
		return ev.grouped(tuples)
	}
	return ev.project(tuples)
}

// oracle is one evaluation's state.
type oracle struct {
	sel      *sql.Select
	tables   []*catalog.Table
	tableIdx map[*catalog.Table]int
}

// tuple is one joined row: a row index per FROM table.
type tuple []int32

// ---------------------------------------------------------------------
// Joining
// ---------------------------------------------------------------------

// conjTables lists the distinct FROM positions an expression touches.
func (ev *oracle) conjTables(e sql.Expr) []int {
	seen := map[int]bool{}
	var out []int
	sql.WalkCols(e, func(c *catalog.Column) {
		i := ev.tableIdx[c.Table]
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	})
	return out
}

// splitAnd flattens the WHERE conjunction.
func splitAnd(e sql.Expr, out *[]sql.Expr) {
	if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
		splitAnd(b.L, out)
		splitAnd(b.R, out)
		return
	}
	*out = append(*out, e)
}

// join enumerates the joined tuples: FROM tables one at a time, each
// attached by its equality edges to the already-joined prefix (hash on
// the first edge, verify the rest), single-table conjuncts applied at
// the scan, and the complete WHERE re-checked per final tuple.
func (ev *oracle) join() ([]tuple, error) {
	var conjs []sql.Expr
	if ev.sel.Where != nil {
		splitAnd(ev.sel.Where, &conjs)
	}

	perTable := make([][]sql.Expr, len(ev.tables))
	type edge struct{ a, b *catalog.Column } // a on the earlier table
	var edges []edge
	for _, c := range conjs {
		ts := ev.conjTables(c)
		switch len(ts) {
		case 0:
			v, err := ev.eval(c, nil)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				return nil, nil // constant-false WHERE
			}
		case 1:
			perTable[ts[0]] = append(perTable[ts[0]], c)
		case 2:
			b, ok := c.(*sql.Binary)
			if !ok || b.Op != sql.OpEq {
				return nil, fmt.Errorf("sqlcheck: unsupported cross-table predicate %s", sql.String(c))
			}
			lr, lok := b.L.(*sql.ColRef)
			rr, rok := b.R.(*sql.ColRef)
			if !lok || !rok {
				return nil, fmt.Errorf("sqlcheck: unsupported cross-table predicate %s", sql.String(c))
			}
			l, r := lr.Col, rr.Col
			if ev.tableIdx[l.Table] > ev.tableIdx[r.Table] {
				l, r = r, l
			}
			edges = append(edges, edge{a: l, b: r})
		default:
			return nil, fmt.Errorf("sqlcheck: predicate %s touches %d tables", sql.String(c), len(ts))
		}
	}

	// scanRows lists a table's row indexes passing its own filters.
	scanRows := func(ti int) ([]int32, error) {
		t := ev.tables[ti]
		var out []int32
		tup := make(tuple, len(ev.tables))
	rows:
		for i := 0; i < t.Rows(); i++ {
			tup[ti] = int32(i)
			for _, f := range perTable[ti] {
				v, err := ev.eval(f, tup)
				if err != nil {
					return nil, err
				}
				if v == 0 {
					continue rows
				}
			}
			out = append(out, int32(i))
		}
		return out, nil
	}

	first, err := scanRows(0)
	if err != nil {
		return nil, err
	}
	tuples := make([]tuple, len(first))
	for i, r := range first {
		tuples[i] = make(tuple, len(ev.tables))
		tuples[i][0] = r
	}

	for ti := 1; ti < len(ev.tables); ti++ {
		var own []edge // edges joining table ti to the joined prefix
		for _, e := range edges {
			if ev.tableIdx[e.b.Table] == ti && ev.tableIdx[e.a.Table] < ti {
				own = append(own, e)
			}
		}
		rows, err := scanRows(ti)
		if err != nil {
			return nil, err
		}
		var next []tuple
		if len(own) == 0 {
			// Cross join (the planner rejects these; the oracle stays
			// total for robustness, with a size guard).
			if len(tuples)*len(rows) > 4_000_000 {
				return nil, fmt.Errorf("sqlcheck: cross join of %d×%d tuples", len(tuples), len(rows))
			}
			for _, tp := range tuples {
				for _, r := range rows {
					nt := append(tuple(nil), tp...)
					nt[ti] = r
					next = append(next, nt)
				}
			}
		} else {
			// Hash table ti's rows on the first edge's own-side value,
			// verify remaining edges per candidate.
			key := own[0].b
			idx := map[int64][]int32{}
			for _, r := range rows {
				v, _ := baseValue(key, int(r))
				idx[v] = append(idx[v], r)
			}
			probe := own[0].a
		match:
			for _, tp := range tuples {
				pv, ok := baseValue(probe, int(tp[ev.tableIdx[probe.Table]]))
				if !ok {
					return nil, fmt.Errorf("sqlcheck: join key %s is not numeric", probe.Name)
				}
				for _, r := range idx[pv] {
					for _, e := range own[1:] {
						av, _ := baseValue(e.a, int(tp[ev.tableIdx[e.a.Table]]))
						bv, _ := baseValue(e.b, int(r))
						if av != bv {
							continue match
						}
					}
					nt := append(tuple(nil), tp...)
					nt[ti] = r
					next = append(next, nt)
				}
			}
		}
		tuples = next
	}

	// Belt and braces: the full WHERE must hold per tuple.
	if ev.sel.Where != nil {
		kept := tuples[:0]
		for _, tp := range tuples {
			v, err := ev.eval(ev.sel.Where, tp)
			if err != nil {
				return nil, err
			}
			if v != 0 {
				kept = append(kept, tp)
			}
		}
		tuples = kept
	}
	return tuples, nil
}

// ---------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------

// baseValue reads one scalar (true signed value) from a base column.
func baseValue(c *catalog.Column, row int) (int64, bool) {
	rel := c.Table.Rel
	switch c.Type.Kind {
	case catalog.Int32:
		return int64(rel.Int32(c.Name)[row]), true
	case catalog.Int64:
		return rel.Int64(c.Name)[row], true
	case catalog.Numeric:
		return int64(rel.Numeric(c.Name)[row]), true
	case catalog.Date:
		return int64(rel.Date(c.Name)[row]), true
	case catalog.Byte:
		return int64(rel.Byte(c.Name)[row]), true
	}
	return 0, false
}

// strValue resolves a string operand for a tuple.
func (ev *oracle) strValue(e sql.Expr, tp tuple) ([]byte, bool) {
	switch x := e.(type) {
	case *sql.StrLit:
		return []byte(x.Val), true
	case *sql.ColRef:
		if x.Col.Type.Kind == catalog.String {
			row := int(tp[ev.tableIdx[x.Col.Table]])
			return x.Col.Table.Rel.String(x.Col.Name).Get(row), true
		}
	}
	return nil, false
}

// eval interprets an expression for one tuple. Aggregate calls are
// resolved by the grouped evaluator through lookup (nil elsewhere).
func (ev *oracle) eval(e sql.Expr, tp tuple) (int64, error) {
	return ev.evalWith(e, tp, nil)
}

func (ev *oracle) evalWith(e sql.Expr, tp tuple, lookup func(sql.Expr) (int64, bool)) (int64, error) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	if lookup != nil {
		if v, ok := lookup(e); ok {
			return v, nil
		}
	}
	switch x := e.(type) {
	case *sql.NumLit:
		return x.Val, nil
	case *sql.DateLit:
		return int64(x.Days), nil
	case *sql.ColRef:
		if v, ok := baseValue(x.Col, int(tp[ev.tableIdx[x.Col.Table]])); ok {
			return v, nil
		}
		return 0, fmt.Errorf("sqlcheck: cannot evaluate column %q", x.Name)
	case *sql.Not:
		v, err := ev.evalWith(x.X, tp, lookup)
		if err != nil {
			return 0, err
		}
		return b2i(v == 0), nil
	case *sql.Between:
		v, err := ev.evalWith(x.X, tp, lookup)
		if err != nil {
			return 0, err
		}
		lo, err := ev.evalWith(x.Lo, tp, lookup)
		if err != nil {
			return 0, err
		}
		hi, err := ev.evalWith(x.Hi, tp, lookup)
		if err != nil {
			return 0, err
		}
		return b2i((v >= lo && v <= hi) != x.Negate), nil
	case *sql.InList:
		if sv, ok := ev.strValue(x.X, tp); ok {
			found := false
			for _, l := range x.List {
				lv, ok := ev.strValue(l, tp)
				if !ok {
					return 0, fmt.Errorf("sqlcheck: cannot evaluate %s", sql.String(l))
				}
				if bytes.Equal(sv, lv) {
					found = true
					break
				}
			}
			return b2i(found != x.Negate), nil
		}
		v, err := ev.evalWith(x.X, tp, lookup)
		if err != nil {
			return 0, err
		}
		found := false
		for _, l := range x.List {
			lv, err := ev.evalWith(l, tp, lookup)
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
			if lv, ok := ev.strValue(x.L, tp); ok {
				rv, ok := ev.strValue(x.R, tp)
				if !ok {
					return 0, fmt.Errorf("sqlcheck: cannot evaluate %s", sql.String(x.R))
				}
				return b2i(bytes.Equal(lv, rv) == (x.Op == sql.OpEq)), nil
			}
		}
		l, err := ev.evalWith(x.L, tp, lookup)
		if err != nil {
			return 0, err
		}
		if x.Op == sql.OpAnd && l == 0 {
			return 0, nil
		}
		if x.Op == sql.OpOr && l != 0 {
			return 1, nil
		}
		r, err := ev.evalWith(x.R, tp, lookup)
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
	return 0, fmt.Errorf("sqlcheck: cannot evaluate %s", sql.String(e))
}

// ---------------------------------------------------------------------
// Grouping, projection, ordering
// ---------------------------------------------------------------------

// aggState accumulates one aggregate over a group.
type aggState struct {
	src      *sql.Agg
	sum, cnt int64
	min, max int64
}

// group is one grouping-key equivalence class.
type group struct {
	first tuple // first tuple seen (resolves bare column references)
	aggs  []aggState
	n     int64
}

// collectAggs gathers the distinct aggregate calls of the statement.
func (ev *oracle) collectAggs() []*sql.Agg {
	var out []*sql.Agg
	add := func(a *sql.Agg) {
		for _, x := range out {
			if sql.Equal(x, a) {
				return
			}
		}
		out = append(out, a)
	}
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.Agg:
			add(x)
		case *sql.Binary:
			walk(x.L)
			walk(x.R)
		case *sql.Not:
			walk(x.X)
		case *sql.Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *sql.InList:
			walk(x.X)
			for _, l := range x.List {
				walk(l)
			}
		}
	}
	for _, it := range ev.sel.Items {
		walk(it.Expr)
	}
	if ev.sel.Having != nil {
		walk(ev.sel.Having)
	}
	for _, o := range ev.sel.OrderBy {
		if o.Item < 0 {
			walk(o.Expr)
		}
	}
	return out
}

// grouped evaluates an aggregated query: group tuples by the GROUP BY
// values, fold every aggregate, filter by HAVING, project the items,
// order and limit.
func (ev *oracle) grouped(tuples []tuple) ([][]int64, error) {
	aggs := ev.collectAggs()
	groups := map[string]*group{}
	var order []string

	keyBuf := make([]byte, 0, 64)
	for _, tp := range tuples {
		keyBuf = keyBuf[:0]
		for _, g := range ev.sel.GroupBy {
			v, err := ev.eval(g, tp)
			if err != nil {
				return nil, err
			}
			for s := 0; s < 64; s += 8 {
				keyBuf = append(keyBuf, byte(uint64(v)>>s))
			}
		}
		k := string(keyBuf)
		gr := groups[k]
		if gr == nil {
			gr = &group{first: append(tuple(nil), tp...), aggs: make([]aggState, len(aggs))}
			for i, a := range aggs {
				gr.aggs[i].src = a
			}
			groups[k] = gr
			order = append(order, k)
		}
		gr.n++
		for i, a := range aggs {
			st := &gr.aggs[i]
			if a.Star || a.Fn == sql.AggCount {
				st.cnt++ // the engines have no NULL: COUNT(expr) = COUNT(*)
				continue
			}
			v, err := ev.eval(a.Arg, tp)
			if err != nil {
				return nil, err
			}
			st.cnt++
			st.sum += v
			if gr.n == 1 || v < st.min {
				st.min = v
			}
			if gr.n == 1 || v > st.max {
				st.max = v
			}
		}
	}

	// A global aggregate yields exactly one row even on empty input,
	// with every aggregate zero (matching logical.MergeGlobal); HAVING,
	// ORDER BY and LIMIT still apply to it.
	if len(ev.sel.GroupBy) == 0 && len(order) == 0 {
		zero := func(e sql.Expr) (int64, bool) {
			_, ok := e.(*sql.Agg)
			return 0, ok
		}
		if ev.sel.Having != nil {
			v, err := ev.evalWith(ev.sel.Having, nil, zero)
			if err != nil {
				return nil, err
			}
			if v == 0 {
				return nil, nil
			}
		}
		row := make([]int64, len(ev.sel.Items))
		for i, it := range ev.sel.Items {
			v, err := ev.evalWith(it.Expr, nil, zero)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		sv := make([]int64, len(ev.sel.OrderBy))
		for i, o := range ev.sel.OrderBy {
			if o.Item >= 0 {
				sv[i] = row[o.Item]
				continue
			}
			v, err := ev.evalWith(o.Expr, nil, zero)
			if err != nil {
				return nil, err
			}
			sv[i] = v
		}
		return ev.finish([][]int64{row}, [][]int64{sv})
	}

	aggValue := func(gr *group, a *sql.Agg) int64 {
		for i := range gr.aggs {
			if sql.Equal(gr.aggs[i].src, a) {
				st := &gr.aggs[i]
				switch {
				case a.Star || a.Fn == sql.AggCount:
					return st.cnt
				case a.Fn == sql.AggSum:
					return st.sum
				case a.Fn == sql.AggMin:
					return st.min
				default:
					return st.max
				}
			}
		}
		panic("sqlcheck: uncollected aggregate")
	}
	lookupFor := func(gr *group) func(sql.Expr) (int64, bool) {
		return func(e sql.Expr) (int64, bool) {
			if a, ok := e.(*sql.Agg); ok {
				return aggValue(gr, a), true
			}
			return 0, false
		}
	}

	var rows [][]int64
	var sortVals [][]int64
	nOrder := len(ev.sel.OrderBy)
	for _, k := range order {
		gr := groups[k]
		if ev.sel.Having != nil {
			v, err := ev.evalWith(ev.sel.Having, gr.first, lookupFor(gr))
			if err != nil {
				return nil, err
			}
			if v == 0 {
				continue
			}
		}
		row := make([]int64, len(ev.sel.Items))
		for i, it := range ev.sel.Items {
			v, err := ev.evalWith(it.Expr, gr.first, lookupFor(gr))
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		sv := make([]int64, nOrder)
		for i, o := range ev.sel.OrderBy {
			if o.Item >= 0 {
				sv[i] = row[o.Item]
				continue
			}
			v, err := ev.evalWith(o.Expr, gr.first, lookupFor(gr))
			if err != nil {
				return nil, err
			}
			sv[i] = v
		}
		rows = append(rows, row)
		sortVals = append(sortVals, sv)
	}
	return ev.finish(rows, sortVals)
}

// project evaluates a plain projection query.
func (ev *oracle) project(tuples []tuple) ([][]int64, error) {
	var rows [][]int64
	var sortVals [][]int64
	nOrder := len(ev.sel.OrderBy)
	for _, tp := range tuples {
		row := make([]int64, len(ev.sel.Items))
		for i, it := range ev.sel.Items {
			v, err := ev.eval(it.Expr, tp)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		sv := make([]int64, nOrder)
		for i, o := range ev.sel.OrderBy {
			if o.Item >= 0 {
				sv[i] = row[o.Item]
				continue
			}
			matched := false
			for j, it := range ev.sel.Items {
				if sql.Equal(o.Expr, it.Expr) {
					sv[i] = row[j]
					matched = true
					break
				}
			}
			if !matched {
				v, err := ev.eval(o.Expr, tp)
				if err != nil {
					return nil, err
				}
				sv[i] = v
			}
		}
		rows = append(rows, row)
		sortVals = append(sortVals, sv)
	}
	return ev.finish(rows, sortVals)
}

// finish orders and limits the produced rows.
func (ev *oracle) finish(rows, sortVals [][]int64) ([][]int64, error) {
	if len(ev.sel.OrderBy) > 0 {
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for k, o := range ev.sel.OrderBy {
				av, bv := sortVals[idx[a]][k], sortVals[idx[b]][k]
				if av == bv {
					continue
				}
				if o.Desc {
					return av > bv
				}
				return av < bv
			}
			return false
		})
		ordered := make([][]int64, len(rows))
		for i, j := range idx {
			ordered[i] = rows[j]
		}
		rows = ordered
	}
	if ev.sel.Limit >= 0 && len(rows) > ev.sel.Limit {
		rows = rows[:ev.sel.Limit]
	}
	return rows, nil
}
