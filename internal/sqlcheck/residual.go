package sqlcheck

// Fixed differential cases for the expression program both lowerings
// run (logical's Prog): residual conjuncts the filter classifier cannot
// turn into a range or a string comparison, aggregate arguments and
// projection items. Together they reach every op — column-vs-column and
// arithmetic comparisons, NOT over numeric and string IN, OR across a
// string equality and a numeric range, NOT BETWEEN, IN with a column
// among its items — on a spine scan, on a build pipeline, and over
// gathered frame slots. The wrap cases run over a MiniTPCH whose
// values make +, − and × and every sum wrap modulo 2⁶⁴, on every engine
// as in the oracle. The generated corpus reaches these shapes only by
// chance.

// ResidualCase is one text over the database Dataset names: "tpch" or
// "ssb" at SF 0.01, or "wrap": MiniTPCH over three 1024-row blocks and
// a tail, with l_extendedprice, l_discount and o_totalprice large
// enough that sums and products of them wrap.
type ResidualCase struct {
	Name    string
	Dataset string
	Text    string
}

// ResidualCases covers the expression program's ops on both schemas.
var ResidualCases = []ResidualCase{
	{Name: "col-vs-col", Dataset: "tpch",
		Text: "select count(*), sum(l_quantity) from lineitem where l_suppkey < l_partkey"},
	{Name: "arith-cmp", Dataset: "tpch",
		Text: "select count(*), sum(l_extendedprice) from lineitem where l_quantity * 2 > l_tax + 30"},
	{Name: "not-arith-and-col-vs-col", Dataset: "tpch",
		Text: "select count(*), sum(l_extendedprice) from lineitem " +
			"where not (l_quantity * 2 > l_tax + 30) and l_suppkey < l_partkey"},
	{Name: "in-or-range", Dataset: "tpch",
		Text: "select count(*), sum(l_extendedprice) from lineitem " +
			"where l_quantity in (1, 5, 9, 13, 17) or l_discount < 0.02"},
	{Name: "not-in-numeric", Dataset: "tpch",
		Text: "select l_suppkey, count(*), sum(l_discount) from lineitem " +
			"where not (l_quantity in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)) and l_suppkey < 20 group by l_suppkey"},
	{Name: "in-with-column", Dataset: "tpch",
		Text: "select count(*), sum(l_quantity) from lineitem where l_suppkey in (l_partkey, 7, 11)"},
	{Name: "not-in-string", Dataset: "tpch",
		Text: "select c_nationkey, count(*) from customer " +
			"where not (c_mktsegment in ('BUILDING', 'MACHINERY')) group by c_nationkey"},
	{Name: "or-string-eq-range", Dataset: "tpch",
		Text: "select c_nationkey, count(*) from customer " +
			"where c_mktsegment = 'BUILDING' or c_nationkey < 5 group by c_nationkey"},
	{Name: "not-string-ne-and", Dataset: "tpch",
		Text: "select count(*), sum(c_nationkey) from customer " +
			"where not (c_mktsegment <> 'HOUSEHOLD' and c_custkey > 300)"},
	{Name: "not-between", Dataset: "tpch",
		Text: "select count(*), sum(l_extendedprice * (1 - l_discount)) from lineitem " +
			"where l_discount not between 0.02 and 0.08"},
	{Name: "residual-on-build", Dataset: "tpch",
		Text: "select sum(o_totalprice - l_extendedprice), count(*) from lineitem, orders " +
			"where l_orderkey = o_orderkey and (o_orderdate < date '1993-01-01' or o_custkey in (1, 2, 3, 4))"},
	{Name: "projection-arith", Dataset: "tpch",
		Text: "select l_orderkey, l_quantity * 2 - l_tax, 100 - l_discount from lineitem " +
			"where l_suppkey < l_partkey and l_orderkey < 200"},
	{Name: "ssb-col-vs-col-not-between", Dataset: "ssb",
		Text: "select lo_suppkey, count(*), sum(lo_revenue - lo_supplycost) from lineorder " +
			"where lo_partkey > lo_custkey and lo_discount not between 2 and 7 group by lo_suppkey"},
	{Name: "ssb-not-in-or-arith", Dataset: "ssb",
		Text: "select count(*), sum(lo_extendedprice * lo_discount) from lineorder " +
			"where not (lo_quantity in (1, 2, 3)) or lo_revenue * 2 < lo_supplycost + 500"},
	{Name: "ssb-gathered-arith", Dataset: "ssb",
		Text: "select d_year, sum(lo_revenue * 2 - lo_supplycost), count(*) from lineorder, date " +
			"where lo_orderdate = d_datekey and d_year in (1993, 1995) and lo_quantity between 10 and 40 group by d_year"},
	{Name: "wrap-sums", Dataset: "wrap",
		Text: "select count(*), sum(l_extendedprice * l_discount), sum(l_extendedprice + l_extendedprice), " +
			"sum(0 - l_extendedprice * 3) from lineitem where l_orderkey > 10"},
	{Name: "wrap-residual", Dataset: "wrap",
		Text: "select count(*), sum(l_quantity) from lineitem where l_extendedprice * 5 < l_discount"},
	{Name: "wrap-projection", Dataset: "wrap",
		Text: "select l_orderkey, l_extendedprice * 7, l_extendedprice + l_extendedprice - l_discount from lineitem " +
			"where l_orderkey < 40"},
	{Name: "wrap-grouped", Dataset: "wrap",
		Text: "select l_suppkey, sum(l_extendedprice * 3), sum(l_extendedprice) from lineitem group by l_suppkey"},
	{Name: "wrap-gathered", Dataset: "wrap",
		Text: "select count(*), sum(o_totalprice * 3 + l_extendedprice) from lineitem, orders where l_orderkey = o_orderkey"},
}
