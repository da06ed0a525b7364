package logical

import (
	"strings"
	"testing"

	"paradigms/internal/sql"
)

// These tests assert on the *shape* of the optimized logical plan — not
// on query output — so each rewrite is pinned independently.

func mustPlan(t *testing.T, dataset, text string) *Plan {
	t.Helper()
	tp, sb := testDBs()
	db := tp[0.01]
	if dataset == "ssb" {
		db = sb[0.01]
	}
	pl, err := Prepare(db, text)
	if err != nil {
		t.Fatalf("plan %q: %v", text, err)
	}
	return pl
}

// TestPredicatePushdown: every single-table WHERE conjunct lands in its
// table's scan, none survive anywhere else.
func TestPredicatePushdown(t *testing.T) {
	text, _ := SQLText("tpch", "Q3")
	pl := mustPlan(t, "tpch", text)

	var scans []*Scan
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			scans = append(scans, x)
		case *Join:
			walk(x.Build)
			walk(x.Probe)
		}
	}
	walk(pl.Root)

	byTable := map[string]*Scan{}
	for _, s := range scans {
		byTable[s.Table.Name] = s
	}
	cust, ord, li := byTable["customer"], byTable["orders"], byTable["lineitem"]
	if cust == nil || ord == nil || li == nil {
		t.Fatalf("expected scans of customer/orders/lineitem, got %v", byTable)
	}
	if len(cust.Filters) != 1 || !strings.Contains(sql.String(cust.Filters[0]), "c_mktsegment") {
		t.Errorf("customer scan filters = %v, want the mktsegment predicate", filterStrs(cust))
	}
	if len(ord.Filters) != 1 || !strings.Contains(sql.String(ord.Filters[0]), "o_orderdate") {
		t.Errorf("orders scan filters = %v, want the orderdate predicate", filterStrs(ord))
	}
	if len(li.Filters) != 1 || !strings.Contains(sql.String(li.Filters[0]), "l_shipdate") {
		t.Errorf("lineitem scan filters = %v, want the shipdate predicate", filterStrs(li))
	}

	// BETWEEN desugars into a two-conjunct cascade on the scan.
	q6text, _ := SQLText("tpch", "Q6")
	q6 := mustPlan(t, "tpch", q6text)
	sc, ok := q6.Root.(*Scan)
	if !ok {
		t.Fatalf("Q6 plan root is %T, want a bare scan", q6.Root)
	}
	if len(sc.Filters) != 5 {
		t.Errorf("Q6 scan has %d conjuncts, want 5 (date×2, discount between→2, quantity)", len(sc.Filters))
	}
}

// TestJoinOrder: hash tables build on the smaller, key-unique dimension
// side; the fact table is the probe spine. In Q5 the larger orders
// chain claims nation ⋈ region through the implied c_nationkey =
// n_nationkey, so ASIA filters the customer build; that chain probes
// first, the unfiltered supplier second, and the one cross-chain check
// left is c_nationkey = s_nationkey.
func TestJoinOrder(t *testing.T) {
	text, _ := SQLText("tpch", "Q5")
	pl := mustPlan(t, "tpch", text)

	// Spine of the final pipeline is lineitem (the largest table).
	if got := pl.Root.Spine().Table.Name; got != "lineitem" {
		t.Fatalf("final pipeline spine = %s, want lineitem", got)
	}

	// Outermost join (last probe) is the bare supplier scan; beneath it
	// the selective orders chain probes first.
	top, ok := pl.Root.(*Join)
	if !ok {
		t.Fatal("plan root is not a join")
	}
	if top.BuildKey.Name != "s_suppkey" || top.ProbeKey.Name != "l_suppkey" {
		t.Errorf("outer join keys = %s/%s, want l_suppkey = s_suppkey", top.ProbeKey.Name, top.BuildKey.Name)
	}
	if sc, ok := top.Build.(*Scan); !ok || sc.Table.Name != "supplier" || len(sc.Filters) != 0 {
		t.Errorf("supplier chain = %v, want an unfiltered supplier scan", top.Build)
	}
	inner, ok := top.Probe.(*Join)
	if !ok {
		t.Fatal("expected a second probe beneath the supplier join")
	}
	if inner.BuildKey.Name != "o_orderkey" || inner.ProbeKey.Name != "l_orderkey" {
		t.Errorf("inner join keys = %s/%s, want l_orderkey = o_orderkey", inner.ProbeKey.Name, inner.BuildKey.Name)
	}

	// The c_nationkey = s_nationkey equality cannot be a hash join
	// (neither side is a unique key): it is the one residual, on the
	// join where both chains have been probed.
	if got := residualsOf(pl.Root); len(got) != 1 || len(top.Residuals) != 1 {
		t.Fatalf("residuals = %v (outer join %v), want only the nation equality on the outer join", got, top.Residuals)
	}
	r := top.Residuals[0]
	names := []string{r[0].Name, r[1].Name}
	if !(contains(names, "c_nationkey") && contains(names, "s_nationkey")) {
		t.Errorf("residual joins %v, want c_nationkey = s_nationkey", names)
	}

	// The orders chain builds customer's hash table on c_custkey ...
	ordChain, ok := inner.Build.(*Join)
	if !ok || ordChain.Spine().Table.Name != "orders" {
		t.Fatalf("orders chain spine = %v, want orders streaming a customer build", inner.Build)
	}
	if ordChain.BuildKey.Name != "c_custkey" {
		t.Errorf("orders chain builds on %s, want c_custkey", ordChain.BuildKey.Name)
	}
	// ... and customer probes the snowflake nation ← region.
	custChain, ok := ordChain.Build.(*Join)
	if !ok || custChain.Spine().Table.Name != "customer" {
		t.Fatalf("customer chain = %v, want customer probing nation", ordChain.Build)
	}
	if custChain.BuildKey.Name != "n_nationkey" || custChain.ProbeKey.Name != "c_nationkey" {
		t.Errorf("customer chain joins %s = %s, want c_nationkey = n_nationkey", custChain.ProbeKey.Name, custChain.BuildKey.Name)
	}
	nationChain, ok := custChain.Build.(*Join)
	if !ok || nationChain.BuildKey.Name != "r_regionkey" {
		t.Fatalf("nation chain = %v, want nation probing region on r_regionkey", custChain.Build)
	}
}

// TestEqualitySelectivityFromNDV: `col = ?` keeps 1/NDV(col) — SSB's
// p_category has 25 values, s_region 5 — where the static guess read
// both as 0.1.
func TestEqualitySelectivityFromNDV(t *testing.T) {
	for _, tc := range []struct {
		text string
		want float64
	}{
		{`select count(*) from part where p_category = ?`, 1.0 / 25},
		{`select count(*) from part where ? = p_category`, 1.0 / 25},
		{`select count(*) from supplier where s_region = 1`, 1.0 / 5},
	} {
		sc := mustPlan(t, "ssb", tc.text).Root.(*Scan)
		if got := selectivity(sc.Filters[0]); got != tc.want {
			t.Errorf("%s: selectivity = %v, want %v", tc.text, got, tc.want)
		}
	}
}

// TestProbeOrderByPassFraction: Q2.1's fact pipeline probes the chain
// that passes the fewest lineorder rows first — part (1/25), then
// supplier (1/5), then the unfiltered date dimension, even though date
// is the smallest build.
func TestProbeOrderByPassFraction(t *testing.T) {
	text, _ := SQLText("ssb", "Q2.1")
	pl := mustPlan(t, "ssb", text)
	var got []string
	pipes := Decompose(pl)
	for _, st := range pipes[len(pipes)-1].Steps {
		got = append(got, st.Build.Scan.Table.Name)
	}
	if want := []string{"part", "supplier", "date"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("Q2.1 probe order = %v, want %v", got, want)
	}
}

// TestImpliedResidualDropped: an equality the tree already enforces is
// not checked again. Without region, Q5's nation still moves under the
// customer build via c_nationkey = n_nationkey, and the stated
// s_nationkey = n_nationkey follows from that join and the
// c_nationkey = s_nationkey residual. A repeated attachment equality is
// implied by its own hash join.
func TestImpliedResidualDropped(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{`select count(*) from customer, orders, lineitem, supplier, nation
			where c_custkey = o_custkey and l_orderkey = o_orderkey and l_suppkey = s_suppkey
			and c_nationkey = s_nationkey and s_nationkey = n_nationkey`, "c_nationkey = s_nationkey"},
		{`select count(*) from lineitem, orders where l_orderkey = o_orderkey and o_orderkey = l_orderkey`, ""},
	} {
		pl := mustPlan(t, "tpch", tc.text)
		if got := strings.Join(residualsOf(pl.Root), ", "); got != tc.want {
			t.Errorf("residuals = %q, want %q\n%s", got, tc.want, pl.Format())
		}
	}
}

// residualsOf lists every residual equality checked anywhere in a join
// tree.
func residualsOf(n Node) []string {
	j, ok := n.(*Join)
	if !ok {
		return nil
	}
	var out []string
	for _, r := range j.Residuals {
		out = append(out, r[0].Name+" = "+r[1].Name)
	}
	return append(append(out, residualsOf(j.Build)...), residualsOf(j.Probe)...)
}

// TestProjectionPruning: scans list only the columns later operators
// consume; filter-only columns are excluded.
func TestProjectionPruning(t *testing.T) {
	text, _ := SQLText("tpch", "Q6")
	pl := mustPlan(t, "tpch", text)
	sc := pl.Root.(*Scan)
	cols := map[string]bool{}
	for _, c := range sc.Cols {
		cols[c.Name] = true
	}
	if !cols["l_extendedprice"] || !cols["l_discount"] {
		t.Errorf("Q6 scan cols = %v, want the two revenue inputs", colNames(sc.Cols))
	}
	if cols["l_shipdate"] || cols["l_quantity"] {
		t.Errorf("Q6 scan cols = %v: filter-only columns must be pruned", colNames(sc.Cols))
	}

	q3text, _ := SQLText("tpch", "Q3")
	q3 := mustPlan(t, "tpch", q3text)
	var custScan *Scan
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			if x.Table.Name == "customer" {
				custScan = x
			}
		case *Join:
			walk(x.Build)
			walk(x.Probe)
		}
	}
	walk(q3.Root)
	if custScan == nil {
		t.Fatal("no customer scan in Q3 plan")
	}
	if len(custScan.Cols) != 1 || custScan.Cols[0].Name != "c_custkey" {
		t.Errorf("customer scan cols = %v, want only the join key c_custkey", colNames(custScan.Cols))
	}
}

// TestConstantFolding: literal arithmetic folds before pushdown, so the
// scan predicate compares against a single pre-scaled literal.
func TestConstantFolding(t *testing.T) {
	pl := mustPlan(t, "tpch", `select sum(l_extendedprice) from lineitem where l_quantity < 20 + 4`)
	sc := pl.Root.(*Scan)
	if len(sc.Filters) != 1 {
		t.Fatalf("filters = %v", sc.Filters)
	}
	got := sql.String(sc.Filters[0])
	if strings.Contains(got, "+") || !strings.Contains(got, "24") {
		t.Errorf("folded predicate = %s, want a single folded literal (no arithmetic)", got)
	}
	// The folded literal carries the column's raw scale (24.00 → 2400).
	lit, ok := sc.Filters[0].(*sql.Binary).R.(*sql.NumLit)
	if !ok || lit.Val != 2400 {
		t.Errorf("folded literal = %#v, want raw value 2400 at scale 2", sc.Filters[0].(*sql.Binary).R)
	}
}

// TestGroupKeyReduction: grouping columns functionally determined by a
// kept key demote to first-value slots (Q3: group by l_orderkey only).
func TestGroupKeyReduction(t *testing.T) {
	text, _ := SQLText("tpch", "Q3")
	pl := mustPlan(t, "tpch", text)
	if pl.Agg == nil {
		t.Fatal("Q3 plan has no aggregate")
	}
	if len(pl.Agg.Keys) != 1 || pl.Agg.Keys[0].Name != "l_orderkey" {
		t.Fatalf("Q3 kept keys = %v, want [l_orderkey]", colNames(pl.Agg.Keys))
	}
	firsts := 0
	for _, s := range pl.Agg.Aggs {
		if s.Op == OpFirst {
			firsts++
		}
	}
	if firsts != 2 {
		t.Errorf("Q3 has %d first-value slots, want 2 (o_orderdate, o_shippriority)", firsts)
	}

	// Q2.1 keeps both independent keys, packed.
	q21, _ := SQLText("ssb", "Q2.1")
	pl2 := mustPlan(t, "ssb", q21)
	if len(pl2.Agg.Keys) != 2 {
		t.Errorf("Q2.1 kept keys = %v, want both d_year and p_brand1", colNames(pl2.Agg.Keys))
	}
}

// TestFormat pins the EXPLAIN rendering the shape tests and sqlsh rely
// on.
func TestFormat(t *testing.T) {
	text, _ := SQLText("tpch", "Q3")
	pl := mustPlan(t, "tpch", text)
	out := pl.Format()
	for _, want := range []string{
		"limit 10",
		"groupby keys=[l_orderkey] (reduced from [l_orderkey o_orderdate o_shippriority])",
		"hashjoin l_orderkey = o_orderkey",
		"scan customer σ((c_mktsegment = 'BUILDING'))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func filterStrs(s *Scan) []string {
	var out []string
	for _, f := range s.Filters {
		out = append(out, sql.String(f))
	}
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
