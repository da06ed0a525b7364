package logical

// Canonical SQL texts for the repo's named benchmark queries that the
// front-end can express. Where internal/registry lists no hand-written
// kernel for a name (Q6, Q3, SSB Q1.1 on Typer and Tectorwise; every
// name here on the hybrid), this text is how the name runs. The
// cross-validation suite parses, plans, and executes each and requires
// bit-identical results against the reference oracles; cmd/serve -sql
// mixes them into the service workload. ORDER BY lists carry explicit key tiebreakers so results
// are total-ordered, exactly like the oracles' comparators. (Q18 is the
// join + HAVING formulation: equivalent to the nested-IN original
// because orders ⋈ customer is N:1, so per-order quantity sums are
// unchanged by the join.)
var sqlTexts = map[string]map[string]string{
	"tpch": {
		"Q6": `select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01'
  and l_shipdate < date '1995-01-01'
  and l_discount between 0.05 and 0.07
  and l_quantity < 24`,

		"Q3": `select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
       o_orderdate, o_shippriority
from customer, orders, lineitem
where c_mktsegment = 'BUILDING'
  and c_custkey = o_custkey
  and l_orderkey = o_orderkey
  and o_orderdate < date '1995-03-15'
  and l_shipdate > date '1995-03-15'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate, l_orderkey
limit 10`,

		"Q5": `select c_nationkey, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, supplier, nation, region
where c_custkey = o_custkey
  and l_orderkey = o_orderkey
  and l_suppkey = s_suppkey
  and c_nationkey = s_nationkey
  and s_nationkey = n_nationkey
  and n_regionkey = r_regionkey
  and r_name = 'ASIA'
  and o_orderdate >= date '1994-01-01'
  and o_orderdate < date '1995-01-01'
group by c_nationkey
order by revenue desc, c_nationkey`,

		"Q18": `select c_custkey, o_orderkey, o_orderdate, o_totalprice,
       sum(l_quantity) as sum_qty
from customer, orders, lineitem
where c_custkey = o_custkey
  and o_orderkey = l_orderkey
group by c_custkey, o_orderkey, o_orderdate, o_totalprice
having sum(l_quantity) > 300
order by o_totalprice desc, o_orderdate, o_orderkey
limit 100`,
	},
	"ssb": {
		"Q1.1": `select sum(lo_extendedprice * lo_discount) as revenue
from lineorder, date
where lo_orderdate = d_datekey
  and d_year = 1993
  and lo_discount between 1 and 3
  and lo_quantity < 25`,

		"Q2.1": `select d_year, p_brand1, sum(lo_revenue) as revenue
from lineorder, date, part, supplier
where lo_orderdate = d_datekey
  and lo_partkey = p_partkey
  and lo_suppkey = s_suppkey
  and p_category = 12
  and s_region = 1
group by d_year, p_brand1
order by d_year, p_brand1`,
	},
}

// SQLText returns the canonical SQL of a named query ("tpch"/"ssb"
// dataset names, as on storage.Database.Name).
func SQLText(dataset, name string) (string, bool) {
	t, ok := sqlTexts[dataset][name]
	return t, ok
}

// SQLQueries lists the query names with canonical SQL for a dataset, in
// a fixed order.
func SQLQueries(dataset string) []string {
	switch dataset {
	case "tpch":
		return []string{"Q6", "Q3", "Q5", "Q18"}
	case "ssb":
		return []string{"Q1.1", "Q2.1"}
	}
	return nil
}
