package main

import (
	"fmt"
	"math/rand"
	"time"

	"paradigms/internal/sqlcheck"
)

// Engines every workload rotates through, one per request, so each
// per-engine metric is defined on every workload.
var baseEngines = []string{"typer", "tectorwise", "hybrid"}

// sendMode is how a workload's requests reach the service.
type sendMode int

const (
	sendAdhoc     sendMode = iota // literal text over POST /v1/query
	sendPrepared                  // /v1/prepare once, then prepared executions with args
	sendAlternate                 // even requests prepared, odd requests ad-hoc
	sendInProcess                 // server.Service.DoReq, materialized (the only path that reaches shards)
)

// route is how a sharded text must distribute (checked by the gate).
type route int

const (
	routeNone route = iota
	routeScatter
	routeSingle
)

// template is one parameterized SQL text. Every text is written with
// `?` placeholders; the ad-hoc spelling splices the arguments back in.
type template struct {
	name string
	text string
	// weight repeats the template's items in the schedule. Weights are
	// chosen so the 50th and 95th percentile of a workload's latency mix
	// fall inside one template's mode, not on the step between two.
	weight int
	// draw samples one argument binding. Draws vary literals without
	// changing how much data the query touches, so two seeds cost alike.
	draw  func(r *rand.Rand) []string
	route route
}

// workload is one traffic mix.
type workload struct {
	name      string
	why       string
	mode      sendMode
	engines   []string
	shards    int
	variants  int // argument draws per template
	templates []template
}

// item is one (template, argument draw) pair of a seeded schedule.
type item struct {
	tmpl *template
	args []string
	// adhoc is the literal spelling of the item.
	adhoc string
	// rows is the expected result cardinality, filled in by the gate.
	rows int64
}

// schedule builds the seeded item list of a workload: `variants`
// argument draws per template, each repeated `weight` times, shuffled.
// Request i of a client runs items[(offset+i/E) % len] on engines[i % E].
func (w *workload) schedule(seed int64) []*item {
	r := rand.New(rand.NewSource(seed))
	var items []*item
	for ti := range w.templates {
		t := &w.templates[ti]
		for v := 0; v < w.variants; v++ {
			var args []string
			if t.draw != nil {
				args = t.draw(r)
			}
			it := &item{tmpl: t, args: args, adhoc: sqlcheck.Substitute(t.text, args), rows: -1}
			for k := 0; k < max(t.weight, 1); k++ {
				items = append(items, it)
			}
		}
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

func dateLit(t time.Time) string { return "date '" + t.Format("2006-01-02") + "'" }

func day(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }

// dateWindow draws a fixed-width date range starting on a seeded day of
// 1993..1997, where both fact tables are uniformly dense.
func dateWindow(r *rand.Rand, days int) []string {
	lo := day(1993, 1, 1).AddDate(0, 0, r.Intn(5*365-days))
	return []string{dateLit(lo), dateLit(lo.AddDate(0, 0, days))}
}

func yearRange(r *rand.Rand) []string {
	y := 1993 + r.Intn(5)
	return []string{dateLit(day(y, 1, 1)), dateLit(day(y+1, 1, 1))}
}

const (
	q6Text = `select sum(l_extendedprice * l_discount) as revenue from lineitem
where l_shipdate >= ? and l_shipdate < ? and l_discount between ? and ? and l_quantity < ?`

	q11Text = `select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date
where lo_orderdate = d_datekey and d_year = ? and lo_discount between ? and ? and lo_quantity < ?`

	q3Text = `select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, o_orderdate, o_shippriority
from customer, orders, lineitem
where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey
and o_orderdate < ? and l_shipdate > ?
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate, l_orderkey limit 10`

	q5Text = `select c_nationkey, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, supplier, nation, region
where c_custkey = o_custkey and l_orderkey = o_orderkey and l_suppkey = s_suppkey
and c_nationkey = s_nationkey and s_nationkey = n_nationkey and n_regionkey = r_regionkey
and r_name = 'ASIA' and o_orderdate >= ? and o_orderdate < ?
group by c_nationkey order by revenue desc, c_nationkey`

	q21Text = `select d_year, p_brand1, sum(lo_revenue) as revenue from lineorder, date, part, supplier
where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey
and p_category = ? and s_region = ?
group by d_year, p_brand1 order by d_year, p_brand1`
)

func drawQ6(r *rand.Rand) []string {
	lo := 2 + r.Intn(6)
	return append(yearRange(r), fmt.Sprintf("0.0%d", lo), fmt.Sprintf("0.0%d", lo+2), fmt.Sprint(24+r.Intn(2)))
}

func drawQ11(r *rand.Rand) []string {
	lo := 1 + r.Intn(6)
	return []string{fmt.Sprint(1993 + r.Intn(5)), fmt.Sprint(lo), fmt.Sprint(lo + 2), fmt.Sprint(24 + r.Intn(2))}
}

func drawQ3(r *rand.Rand) []string {
	d := dateLit(day(1995, 3, 1+r.Intn(28)))
	return []string{d, d}
}

func drawQ21(r *rand.Rand) []string {
	return []string{fmt.Sprint(10*(1+r.Intn(5)) + 1 + r.Intn(5)), fmt.Sprint(r.Intn(5))}
}

// workloads is the benchmark's five traffic mixes, in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "scan_adhoc",
		why:  "selective scan + global aggregate over the wire: engine scan/filter kernels are >=95% of latency, front-end, plan cache, hash tables and result path are negligible",
		mode: sendAdhoc, engines: baseEngines, variants: 10,
		templates: []template{
			{name: "q6", text: q6Text, draw: drawQ6, weight: 2},
			{name: "q1.1", text: q11Text, draw: drawQ11},
		},
	},
	{
		name: "join_prepared",
		why:  "Q3/Q5/SSB Q2.1 shapes as prepared statements with a fourth arm auto: hash build/probe/group-by, finalize, plan-cache hits, routers and feedback do the work",
		mode: sendPrepared, engines: append(append([]string{}, baseEngines...), "auto"), variants: 5,
		templates: []template{
			{name: "q3", text: q3Text, draw: drawQ3},
			{name: "q5", text: q5Text, draw: yearRange},
			{name: "q2.1", text: q21Text, draw: drawQ21},
		},
	},
	{
		name: "stream_wide",
		why:  "projections returning ~38k rows each, streamed: NDJSON encode, flush and client decode dominate, the engines only produce rows",
		mode: sendAdhoc, engines: baseEngines, variants: 8,
		templates: []template{
			{name: "lineitem_30d", text: `select l_orderkey, l_extendedprice, l_discount from lineitem where l_shipdate >= ? and l_shipdate < ?`,
				draw: func(r *rand.Rand) []string { return dateWindow(r, 30) }},
			{name: "orders_122d", text: `select o_orderkey, o_custkey, o_totalprice from orders where o_orderdate >= ? and o_orderdate < ?`,
				draw: func(r *rand.Rand) []string { return dateWindow(r, 122) }},
		},
	},
	{
		name: "tiny_frontend",
		why:  "sub-millisecond dimension-table queries, half ad-hoc (full parse/bind/plan/lower) and half prepared (plan-cache hit): per-query fixed cost is the whole latency",
		mode: sendAlternate, engines: baseEngines, variants: 5,
		templates: []template{
			{name: "nation_count", text: `select count(*) as n from nation where n_nationkey < ?`,
				draw: func(r *rand.Rand) []string { return []string{fmt.Sprint(5 + r.Intn(20))} }},
			{name: "region_nation", text: `select count(*) as n from region, nation where n_regionkey = r_regionkey and r_regionkey = ?`,
				draw: func(r *rand.Rand) []string { return []string{fmt.Sprint(r.Intn(5))} }},
			{name: "supplier_nation", text: `select count(*) as n from supplier where s_nationkey = ?`,
				draw: func(r *rand.Rand) []string { return []string{fmt.Sprint(r.Intn(25))} }},
			{name: "date_by_year", text: `select d_year, count(*) as n from date where d_monthnum = ? group by d_year`,
				draw: func(r *rand.Rand) []string { return []string{fmt.Sprint(1 + r.Intn(12))} }},
			{name: "customer_count", text: `select count(*) as n from customer where c_nationkey < ?`,
				draw: func(r *rand.Rand) []string { return []string{fmt.Sprint(3 + r.Intn(5))} }},
			{name: "supplier_by_region", text: `select n_regionkey, count(*) as n from supplier, nation where s_nationkey = n_nationkey and s_suppkey < ? group by n_regionkey`,
				draw: func(r *rand.Rand) []string { return []string{fmt.Sprint(900 + r.Intn(200))} }},
		},
	},
	{
		name: "sharded_materialized",
		why:  "2 in-process shards driven through Service.Do: the only workload through exchange scatter/gather and the materialized result path; hybrid requests run single-process as comparator",
		mode: sendInProcess, engines: baseEngines, shards: 2, variants: 3,
		templates: []template{
			{name: "cust_orders_groupby", weight: 2, route: routeScatter,
				text: `select c_custkey, count(*) as n, sum(o_totalprice) as total from customer, orders where c_custkey = o_custkey and o_orderdate >= ? group by c_custkey`,
				draw: func(r *rand.Rand) []string { return []string{dateLit(day(1992, 1, 1+r.Intn(5)))} }},
			{name: "q3_limit", weight: 3, route: routeScatter, text: q3Text, draw: drawQ3},
			{name: "lineorder_sum", weight: 1, route: routeScatter,
				text: `select sum(lo_revenue) as revenue from lineorder where lo_discount between ? and ?`,
				draw: func(r *rand.Rand) []string { lo := 1 + r.Intn(6); return []string{fmt.Sprint(lo), fmt.Sprint(lo + 2)} }},
			{name: "nation_count", weight: 1, route: routeSingle,
				text: `select count(*) as n from nation where n_nationkey < ?`,
				draw: func(r *rand.Rand) []string { return []string{fmt.Sprint(5 + r.Intn(20))} }},
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
