package logical

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"paradigms/internal/sql"
)

// renderFilters prints classified filters compactly: col[lo,hi] per
// range (type extremes by name), string filters, residuals, and reject.
func renderFilters(f Filters) string {
	bound := func(v int64) string {
		switch v {
		case math.MinInt32:
			return "min32"
		case math.MaxInt32:
			return "max32"
		case math.MinInt64:
			return "min64"
		case math.MaxInt64:
			return "max64"
		}
		return fmt.Sprint(v)
	}
	var parts []string
	for _, r := range f.Ranges {
		parts = append(parts, fmt.Sprintf("%s[%s,%s]", r.Col.Name, bound(r.Lo), bound(r.Hi)))
	}
	for _, s := range f.Strs {
		op := "<>"
		if s.Eq {
			op = "="
		}
		parts = append(parts, fmt.Sprintf("%s%s'%s'", s.Col.Name, op, s.Val))
	}
	for _, e := range f.Residual {
		parts = append(parts, "residual["+sql.String(e)+"]")
	}
	if f.RejectAll {
		parts = append(parts, "reject")
	}
	return strings.Join(parts, " ")
}

// TestClassifyFilters pins the one scan-filter classifier's output on
// the pipeline over table: repeated bounds on a column intersect,
// literal-first comparisons flip, = is the range [v, v], string = and
// <> against a literal are string filters, anything else is residual,
// and an empty range or one outside its 32-bit column's type rejects
// the pipeline — build pipelines included.
func TestClassifyFilters(t *testing.T) {
	for _, tc := range []struct {
		name, dataset, text, table, want string
	}{
		{"merged bounds", "tpch",
			"select count(*) from orders where o_custkey >= 10 and o_custkey < 100 and o_custkey > 20",
			"orders", "o_custkey[21,99]"},
		{"literal first", "tpch",
			"select count(*) from orders where 100 > o_custkey and 10 <= o_custkey and 50.00 < o_totalprice",
			"orders", "o_custkey[10,99] o_totalprice[5001,max64]"},
		{"equality and range", "tpch",
			"select count(*) from orders where o_shippriority = 0 and o_shippriority >= 0 and o_shippriority < 5",
			"orders", "o_shippriority[0,0]"},
		{"equality outside range", "tpch",
			"select count(*) from orders where o_shippriority = 7 and o_shippriority < 5",
			"orders", "o_shippriority[7,4] reject"},
		{"empty range on a build", "tpch",
			"select count(*) from lineitem, part where l_partkey = p_partkey and p_retailprice > 2000.00 and p_retailprice < 1000.00",
			"part", "p_retailprice[200001,99999] reject"},
		{"beyond int32 max", "tpch",
			"select count(*) from customer where c_custkey > 2147483647",
			"customer", "c_custkey[2147483648,max32] reject"},
		{"below int32 min", "tpch",
			"select count(*) from customer where -2147483648 > c_custkey",
			"customer", "c_custkey[min32,-2147483649] reject"},
		{"strings", "tpch",
			"select count(*) from customer where c_mktsegment <> 'BUILDING' and 'Customer#000000001' = c_name",
			"customer", "c_mktsegment<>'BUILDING' c_name='Customer#000000001'"},
		{"residuals", "tpch",
			"select count(*) from customer where c_nationkey in (1, 2) and c_custkey = c_nationkey and c_nationkey < 3",
			"customer", "c_nationkey[min32,2] residual[c_nationkey in (1, 2)] residual[(c_custkey = c_nationkey)]"},
		{"date bounds", "ssb",
			"select count(*) from lineorder where lo_orderdate >= date '1994-01-01' and lo_orderdate < date '1994-01-01'",
			"lineorder", "lo_orderdate[8766,8765] reject"},
	} {
		pl := mustPlan(t, tc.dataset, tc.text)
		var got []string
		for _, p := range Decompose(pl) {
			if p.Scan.Table.Name == tc.table {
				got = append(got, renderFilters(p.Filters))
			}
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: %s filters = %q, want [%q]", tc.name, tc.table, got, tc.want)
		}
	}

	// Literals the binder keeps off 32-bit columns: a range beyond the
	// type rejects, one covering it clamps to the type.
	pl := mustPlan(t, "tpch", "select count(*) from customer")
	sc := pl.Root.Spine()
	key := sc.Table.Column("c_custkey")
	cmp := func(op sql.BinOp, v int64) sql.Expr {
		return &sql.Binary{Op: op, L: &sql.ColRef{Name: key.Name, Col: key}, R: &sql.NumLit{Val: v}}
	}
	for _, tc := range []struct {
		filters []sql.Expr
		want    string
	}{
		{[]sql.Expr{cmp(sql.OpGt, 5_000_000_000)}, "c_custkey[5000000001,max32] reject"},
		{[]sql.Expr{cmp(sql.OpLt, 5_000_000_000)}, "c_custkey[min32,max32]"},
		{[]sql.Expr{cmp(sql.OpGe, -5_000_000_000), cmp(sql.OpLe, 7)}, "c_custkey[min32,7]"},
		{[]sql.Expr{cmp(sql.OpGt, math.MaxInt64)}, "c_custkey[1,0] reject"},
		{[]sql.Expr{cmp(sql.OpLt, math.MinInt64)}, "c_custkey[1,0] reject"},
	} {
		if got := renderFilters(classifyFilters(&Scan{Table: sc.Table, Filters: tc.filters}, false)); got != tc.want {
			t.Errorf("%s: filters = %q, want %q", sql.String(tc.filters[0]), got, tc.want)
		}
	}
	if got := renderFilters(classifyFilters(sc, true)); got != "reject" {
		t.Errorf("a plan folded to false: filters = %q, want reject", got)
	}
}
