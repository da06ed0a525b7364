package logical

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"paradigms/internal/catalog"
	"paradigms/internal/sql"
	"paradigms/internal/types"
)

// Result is the output of an ad-hoc SQL query: typed columns and rows
// of raw 64-bit values (dates as day numbers, numerics as scaled
// integers) — the engines' physical representation, so cross-validation
// against the reference oracles is bit-exact. Formatting happens only
// at display time.
type Result struct {
	Cols []OutCol
	Rows [][]int64
}

// Cell renders one value using its column type.
func (r *Result) Cell(row, col int) string {
	return formatValue(r.Rows[row][col], r.Cols[col].Type)
}

func formatValue(v int64, t catalog.Type) string {
	switch t.Kind {
	case catalog.Date:
		return types.Date(v).String()
	case catalog.Numeric:
		if t.Scale == 0 {
			return fmt.Sprintf("%d", v)
		}
		pow := int64(1)
		for i := 0; i < t.Scale; i++ {
			pow *= 10
		}
		sign := ""
		if v < 0 {
			sign = "-"
			v = -v
		}
		return fmt.Sprintf("%s%d.%0*d", sign, v/pow, t.Scale, v%pow)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// String renders the result as an aligned text table (the cmd/sqlsh
// output), capping very long results.
func (r *Result) String() string {
	const maxRows = 50
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c.Name)
	}
	n := len(r.Rows)
	shown := n
	if shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	for i := 0; i < shown; i++ {
		cells[i] = make([]string, len(r.Cols))
		for j := range r.Cols {
			cells[i][j] = r.Cell(i, j)
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var sb strings.Builder
	for j, c := range r.Cols {
		if j > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[j], c.Name)
	}
	sb.WriteByte('\n')
	for j := range r.Cols {
		if j > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[j]))
	}
	sb.WriteByte('\n')
	for i := 0; i < shown; i++ {
		for j := range r.Cols {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[j], cells[i][j])
		}
		sb.WriteByte('\n')
	}
	if shown < n {
		fmt.Fprintf(&sb, "... (%d rows total)\n", n)
	} else {
		fmt.Fprintf(&sb, "(%d row%s)\n", n, plural(n))
	}
	return sb.String()
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
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
