package sqlcheck

// Fixed differential cases for the compiled backend's row-free
// pipelines (internal/compiled, DESIGN.md §9): range bounds only, no
// string equalities, generic predicates or probes, so the fused loop
// hands each block's survivors straight to the terminal. A global COUNT
// and SUM over columns or col*col folds the block in one loop; grouped
// and MIN/MAX terminals take the per-survivor sink. Global and grouped,
// with and without range bounds, each over a fact table of many
// 1024-row blocks, so a multi-worker cell also splits it across
// morsels. The classify- cases cover the corners of the one scan-filter
// classifier (logical's classifyFilters), which both lowerings read:
// bounds that merge into one range, literal-first operands, = together
// with a range, an empty range on a build pipeline, a range beyond a
// 32-bit column's type, and string <>. The generated corpus reaches
// these shapes only by chance.

// FoldCase is one text over the SF 0.01 database Dataset names; Folds
// says whether its final pipeline folds per block on the compiled
// backend.
type FoldCase struct {
	Name    string
	Dataset string // "tpch" or "ssb"
	Text    string
	Folds   bool // the final pipeline folds per block
}

// FoldCases covers the row-free shapes and the filter classifier's
// corners on both schemas.
var FoldCases = []FoldCase{
	{Name: "global-unbounded", Dataset: "tpch", Folds: true,
		Text: "select count(*), sum(l_extendedprice * l_discount), sum(l_quantity) from lineitem"},
	{Name: "global-bounded", Dataset: "tpch", Folds: true,
		Text: "select count(*), sum(l_extendedprice), sum(l_suppkey) from lineitem " +
			"where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' and l_quantity < 24"},
	{Name: "global-minmax-bounded", Dataset: "tpch",
		Text: "select count(*), sum(1 - l_discount), min(l_discount), max(l_shipdate) from lineitem " +
			"where l_shipdate >= date '1994-01-01' and l_quantity < 24"},
	{Name: "grouped-array-unbounded", Dataset: "tpch",
		Text: "select l_suppkey, count(*), sum(l_quantity), min(l_discount), max(l_extendedprice) from lineitem group by l_suppkey"},
	{Name: "grouped-array-bounded", Dataset: "tpch",
		Text: "select o_custkey, count(*), sum(o_totalprice), min(o_orderdate) from orders " +
			"where o_orderdate < date '1995-01-01' group by o_custkey"},
	{Name: "grouped-hashed-bounded", Dataset: "tpch",
		Text: "select o_orderkey, sum(o_totalprice), count(*), max(o_orderdate) from orders " +
			"where o_totalprice > 10.00 group by o_orderkey"},
	{Name: "ssb-global-bounded", Dataset: "ssb", Folds: true,
		Text: "select count(*), sum(lo_extendedprice * lo_discount) from lineorder " +
			"where lo_discount between 1 and 3 and lo_quantity < 25"},
	{Name: "ssb-grouped-unbounded", Dataset: "ssb",
		Text: "select lo_suppkey, count(*), sum(lo_revenue), min(lo_orderdate) from lineorder group by lo_suppkey"},
	{Name: "classify-merged-literal-first", Dataset: "tpch", Folds: true,
		Text: "select count(*), sum(l_extendedprice) from lineitem where date '1995-01-01' > l_shipdate " +
			"and l_shipdate >= date '1994-01-01' and l_shipdate >= date '1994-03-01' and 24 > l_quantity"},
	{Name: "classify-eq-and-range", Dataset: "tpch", Folds: true,
		Text: "select count(*), sum(o_totalprice) from orders " +
			"where o_custkey = 100 and o_custkey < 500 and 0 <= o_shippriority and o_shippriority = 0"},
	{Name: "classify-empty-build", Dataset: "tpch",
		Text: "select count(*), sum(l_quantity) from lineitem, part " +
			"where l_partkey = p_partkey and p_retailprice > 2000.00 and p_retailprice < 1000.00"},
	{Name: "classify-beyond-int32", Dataset: "tpch", Folds: true,
		Text: "select count(*), sum(c_nationkey) from customer where c_custkey > 2147483647"},
	{Name: "classify-int32-extremes", Dataset: "tpch", Folds: true,
		Text: "select count(*), sum(c_nationkey) from customer where c_custkey < 2147483647 and -2147483648 < c_custkey"},
	{Name: "classify-string-ne", Dataset: "tpch",
		Text: "select c_nationkey, count(*) from customer " +
			"where c_mktsegment <> 'BUILDING' and 'AUTOMOBILE' <> c_mktsegment group by c_nationkey"},
	{Name: "classify-ssb-eq-and-range", Dataset: "ssb", Folds: true,
		Text: "select count(*), sum(lo_revenue) from lineorder where lo_discount = 2 and lo_discount >= 1 and 25 > lo_quantity"},
}
