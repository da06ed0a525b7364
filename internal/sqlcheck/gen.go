package sqlcheck

import (
	"fmt"
	"math/rand"
	"strings"

	"paradigms/internal/catalog"
	"paradigms/internal/storage"
)

// The seeded random SQL generator. Every query is drawn from a
// pre-validated join template (a table set plus the equi-join conjuncts
// that connect it — always key-unique N:1 attachments, the planner's
// supported join shape) and then randomized: per-table filters sampled
// from real column values, a projection / global-aggregate / grouped
// shape, HAVING over aggregates, ORDER BY ordinals, and LIMIT. LIMIT is
// only ever emitted under an ORDER BY covering every output column, so
// the surviving row multiset is deterministic and the differential
// harness can compare canonicalized rows across engines.

// template is one pre-validated FROM + join-conjunct combination.
type template struct {
	tables []string
	joins  []string
}

var tpchTemplates = []template{
	{tables: []string{"lineitem"}},
	{tables: []string{"orders"}},
	{tables: []string{"customer"}},
	{tables: []string{"part"}},
	{tables: []string{"supplier"}},
	{tables: []string{"nation"}},
	{tables: []string{"orders", "customer"}, joins: []string{"o_custkey = c_custkey"}},
	{tables: []string{"lineitem", "orders"}, joins: []string{"l_orderkey = o_orderkey"}},
	{tables: []string{"lineitem", "supplier"}, joins: []string{"l_suppkey = s_suppkey"}},
	{tables: []string{"lineitem", "part"}, joins: []string{"l_partkey = p_partkey"}},
	{tables: []string{"partsupp", "part"}, joins: []string{"ps_partkey = p_partkey"}},
	{tables: []string{"partsupp", "supplier"}, joins: []string{"ps_suppkey = s_suppkey"}},
	{tables: []string{"customer", "nation"}, joins: []string{"c_nationkey = n_nationkey"}},
	{tables: []string{"supplier", "nation", "region"},
		joins: []string{"s_nationkey = n_nationkey", "n_regionkey = r_regionkey"}},
	{tables: []string{"lineitem", "orders", "customer"},
		joins: []string{"l_orderkey = o_orderkey", "o_custkey = c_custkey"}},
	{tables: []string{"lineitem", "orders", "customer", "nation"},
		joins: []string{"l_orderkey = o_orderkey", "o_custkey = c_custkey", "c_nationkey = n_nationkey"}},
	{tables: []string{"customer", "orders", "lineitem", "supplier", "nation", "region"},
		joins: []string{
			"c_custkey = o_custkey", "l_orderkey = o_orderkey", "l_suppkey = s_suppkey",
			"c_nationkey = s_nationkey", "s_nationkey = n_nationkey", "n_regionkey = r_regionkey"}},
	// Q5's nation class two more ways: without region, and spelled so
	// nation attaches directly to both the customer and supplier chains.
	// The planner's implied-equality claim moves nation between chains;
	// both spellings must agree with the oracle.
	{tables: []string{"customer", "orders", "lineitem", "supplier", "nation"},
		joins: []string{
			"c_custkey = o_custkey", "l_orderkey = o_orderkey", "l_suppkey = s_suppkey",
			"c_nationkey = s_nationkey", "s_nationkey = n_nationkey"}},
	{tables: []string{"customer", "orders", "lineitem", "supplier", "nation", "region"},
		joins: []string{
			"c_custkey = o_custkey", "l_orderkey = o_orderkey", "l_suppkey = s_suppkey",
			"c_nationkey = n_nationkey", "s_nationkey = n_nationkey", "n_regionkey = r_regionkey"}},
}

var ssbTemplates = []template{
	{tables: []string{"lineorder"}},
	{tables: []string{"date"}},
	{tables: []string{"part"}},
	{tables: []string{"customer"}},
	{tables: []string{"lineorder", "date"}, joins: []string{"lo_orderdate = d_datekey"}},
	{tables: []string{"lineorder", "part"}, joins: []string{"lo_partkey = p_partkey"}},
	{tables: []string{"lineorder", "supplier"}, joins: []string{"lo_suppkey = s_suppkey"}},
	{tables: []string{"lineorder", "customer"}, joins: []string{"lo_custkey = c_custkey"}},
	{tables: []string{"lineorder", "date", "part", "supplier"},
		joins: []string{"lo_orderdate = d_datekey", "lo_partkey = p_partkey", "lo_suppkey = s_suppkey"}},
	{tables: []string{"lineorder", "date", "customer"},
		joins: []string{"lo_orderdate = d_datekey", "lo_custkey = c_custkey"}},
}

// Generate produces one random SQL text over db's catalog from the
// given seeded source. Every generated query parses, binds, plans, and
// executes on both lowering backends (the corpus test enforces this).
func Generate(r *rand.Rand, db *storage.Database) string {
	g := &gen{r: r, cat: catalog.For(db)}
	return g.generate(db)
}

// GenerateParameterized produces one random SQL text with `?`
// placeholders in place of (most) filter literals, plus two
// independently sampled argument bindings for it — the prepared-
// statement differential harness's input: one cached plan must produce
// oracle-identical rows under every binding. Substitute splices a
// binding back into the text for the fresh-planned/oracle runs.
func GenerateParameterized(r *rand.Rand, db *storage.Database) (text string, bindings [][]string) {
	g := &gen{r: r, cat: catalog.For(db), bindings: make([][]string, 2)}
	for i := range g.bindings {
		g.bindings[i] = []string{}
	}
	return g.generate(db), g.bindings
}

// Substitute replaces the i-th `?` placeholder (outside string
// literals) with args[i], producing the literal-text spelling of one
// binding.
func Substitute(text string, args []string) string {
	var sb strings.Builder
	inStr := false
	k := 0
	for i := 0; i < len(text); i++ {
		c := text[i]
		if inStr {
			sb.WriteByte(c)
			if c == '\'' {
				inStr = false
			}
			continue
		}
		switch c {
		case '\'':
			inStr = true
			sb.WriteByte(c)
		case '?':
			sb.WriteString(args[k])
			k++
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

func (g *gen) generate(db *storage.Database) string {
	templates := tpchTemplates
	if db.Name == "ssb" {
		templates = ssbTemplates
	}
	tpl := templates[g.r.Intn(len(templates))]

	var conjs []string
	conjs = append(conjs, tpl.joins...)
	for _, tn := range tpl.tables {
		t := g.cat.Table(tn)
		nf := g.pick(0, 0, 1, 1, 2) // 40% no filter, 40% one, 20% two
		for i := 0; i < nf; i++ {
			if c := g.filter(t); c != "" {
				conjs = append(conjs, c)
			}
		}
	}
	if g.r.Intn(20) == 0 {
		conjs = append(conjs, [...]string{"1 = 1", "1 = 2"}[g.r.Intn(2)])
	}

	var sb strings.Builder
	var items []string
	var orderAll bool
	switch g.r.Intn(10) {
	case 0, 1, 2: // projection
		items = g.projection(tpl)
		orderAll = true
	case 3, 4, 5: // global aggregate
		items = g.aggregates(tpl, 1+g.r.Intn(3))
	default: // grouped
		var groupCols []string
		items, groupCols = g.grouped(tpl)
		sb.WriteString("select " + strings.Join(items, ", "))
		sb.WriteString(" from " + strings.Join(tpl.tables, ", "))
		if len(conjs) > 0 {
			sb.WriteString(" where " + strings.Join(conjs, " and "))
		}
		sb.WriteString(" group by " + strings.Join(groupCols, ", "))
		if g.r.Intn(3) == 0 {
			sb.WriteString(fmt.Sprintf(" having count(*) >= %d", 1+g.r.Intn(3)))
		}
		g.orderLimit(&sb, len(items))
		return sb.String()
	}
	sb.WriteString("select " + strings.Join(items, ", "))
	sb.WriteString(" from " + strings.Join(tpl.tables, ", "))
	if len(conjs) > 0 {
		sb.WriteString(" where " + strings.Join(conjs, " and "))
	}
	if orderAll {
		g.orderLimit(&sb, len(items))
	}
	return sb.String()
}

type gen struct {
	r   *rand.Rand
	cat *catalog.Catalog
	// bindings, when non-nil, switches filter literals to `?`
	// placeholders; each binding collects one independently sampled
	// argument text per placeholder.
	bindings [][]string
}

func (g *gen) pick(choices ...int) int { return choices[g.r.Intn(len(choices))] }

// valueCols lists a table's numeric-valued columns (usable in
// expressions, aggregates and comparisons).
func (g *gen) valueCols(t *catalog.Table) []*catalog.Column {
	var out []*catalog.Column
	for _, c := range t.Columns() {
		if c.Type.IsNumeric() {
			out = append(out, c)
		}
	}
	return out
}

// key32Cols lists a table's 32-bit columns (packable group keys).
func (g *gen) key32Cols(t *catalog.Table) []*catalog.Column {
	var out []*catalog.Column
	for _, c := range t.Columns() {
		if c.Type.Kind == catalog.Int32 || c.Type.Kind == catalog.Date {
			out = append(out, c)
		}
	}
	return out
}

func (g *gen) strCols(t *catalog.Table) []*catalog.Column {
	var out []*catalog.Column
	for _, c := range t.Columns() {
		if c.Type.Kind == catalog.String {
			out = append(out, c)
		}
	}
	return out
}

// sample reads a random row's value of a column, rendered as a SQL
// literal at the column's scale. Zero-row relations (possible only on
// synthetic edge databases) still yield a type-correct literal.
func (g *gen) sample(c *catalog.Column) string {
	rel := c.Table.Rel
	if rel.Rows() == 0 {
		if c.Type.Kind == catalog.Date {
			return "date '1995-06-15'"
		}
		return "0"
	}
	row := g.r.Intn(rel.Rows())
	switch c.Type.Kind {
	case catalog.Date:
		return fmt.Sprintf("date '%s'", rel.Date(c.Name)[row])
	case catalog.Numeric:
		v := int64(rel.Numeric(c.Name)[row])
		if c.Type.Scale == 0 {
			return fmt.Sprintf("%d", v)
		}
		pow := int64(1)
		for i := 0; i < c.Type.Scale; i++ {
			pow *= 10
		}
		sign := ""
		if v < 0 {
			sign = "-"
			v = -v
		}
		return fmt.Sprintf("%s%d.%0*d", sign, v/pow, c.Type.Scale, v%pow)
	case catalog.Int64:
		return fmt.Sprintf("%d", rel.Int64(c.Name)[row])
	default:
		return fmt.Sprintf("%d", rel.Int32(c.Name)[row])
	}
}

// lit renders one comparison literal for column c — or, in
// parameterized mode, usually a `?` placeholder whose argument texts
// are sampled independently per binding (string literals never
// parameterize: parameters are numeric/date-valued).
func (g *gen) lit(c *catalog.Column) string {
	if g.bindings == nil || g.r.Intn(3) == 0 {
		return g.sample(c)
	}
	for i := range g.bindings {
		g.bindings[i] = append(g.bindings[i], g.sample(c))
	}
	return "?"
}

// filter emits one random single-table predicate over t.
func (g *gen) filter(t *catalog.Table) string {
	strs := g.strCols(t)
	if len(strs) > 0 && g.r.Intn(4) == 0 {
		c := strs[g.r.Intn(len(strs))]
		heap := t.Rel.String(c.Name)
		if heap.Len() == 0 {
			return ""
		}
		val := func() string { return string(heap.Get(g.r.Intn(heap.Len()))) }
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%s = '%s'", c.Name, val())
		case 1:
			return fmt.Sprintf("%s <> '%s'", c.Name, val())
		default:
			return fmt.Sprintf("%s in ('%s', '%s')", c.Name, val(), val())
		}
	}
	vals := g.valueCols(t)
	if len(vals) == 0 {
		return ""
	}
	c := vals[g.r.Intn(len(vals))]
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	switch g.r.Intn(6) {
	case 0: // between
		return fmt.Sprintf("%s between %s and %s", c.Name, g.lit(c), g.lit(c))
	case 1: // IN list (dates are not IN-able in the grammar's type rules? they are literals too)
		return fmt.Sprintf("%s in (%s, %s, %s)", c.Name, g.lit(c), g.lit(c), g.lit(c))
	case 2: // OR pair
		return fmt.Sprintf("(%s < %s or %s > %s)", c.Name, g.lit(c), c.Name, g.lit(c))
	case 3: // NOT
		return fmt.Sprintf("not (%s %s %s)", c.Name, ops[g.r.Intn(len(ops))], g.lit(c))
	default:
		return fmt.Sprintf("%s %s %s", c.Name, ops[g.r.Intn(len(ops))], g.lit(c))
	}
}

// expr emits a random numeric value expression over the template's
// tables (dates stay bare: the binder rejects date arithmetic). With
// noDate set, date columns are excluded entirely (SUM rejects them).
func (g *gen) expr(tpl template, noDate bool) string {
	t := g.cat.Table(tpl.tables[g.r.Intn(len(tpl.tables))])
	vals := g.valueCols(t)
	if noDate {
		kept := vals[:0]
		for _, c := range vals {
			if c.Type.Kind != catalog.Date {
				kept = append(kept, c)
			}
		}
		vals = kept
	}
	if len(vals) == 0 {
		return "1"
	}
	c := vals[g.r.Intn(len(vals))]
	if c.Type.Kind == catalog.Date || g.r.Intn(2) == 0 {
		return c.Name
	}
	switch g.r.Intn(4) {
	case 0:
		d := vals[g.r.Intn(len(vals))]
		if d.Type.Kind == catalog.Date {
			return c.Name
		}
		return fmt.Sprintf("%s * %s", c.Name, d.Name)
	case 1:
		return fmt.Sprintf("%s * (1 - %s)", c.Name, g.sample(c))
	case 2:
		return fmt.Sprintf("%s + %s", c.Name, g.sample(c))
	default:
		return c.Name
	}
}

// projection emits 1–3 plain select items.
func (g *gen) projection(tpl template) []string {
	n := 1 + g.r.Intn(3)
	items := make([]string, n)
	for i := range items {
		items[i] = g.expr(tpl, false)
	}
	return items
}

// aggregates emits n aggregate select items.
func (g *gen) aggregates(tpl template, n int) []string {
	items := make([]string, n)
	for i := range items {
		switch g.r.Intn(4) {
		case 0:
			items[i] = "count(*)"
		case 1:
			items[i] = fmt.Sprintf("sum(%s)", g.expr(tpl, true))
		case 2:
			items[i] = fmt.Sprintf("min(%s)", g.expr(tpl, false))
		default:
			items[i] = fmt.Sprintf("max(%s)", g.expr(tpl, false))
		}
	}
	return items
}

// grouped emits select items and the GROUP BY column list: one or two
// 32-bit grouping columns (the packable key shapes) plus aggregates.
func (g *gen) grouped(tpl template) (items, groupCols []string) {
	var cands []*catalog.Column
	for _, tn := range tpl.tables {
		cands = append(cands, g.key32Cols(g.cat.Table(tn))...)
	}
	nk := 1
	if len(cands) > 1 && g.r.Intn(2) == 0 {
		nk = 2
	}
	seen := map[string]bool{}
	for len(groupCols) < nk {
		c := cands[g.r.Intn(len(cands))]
		if seen[c.Name] {
			nk--
			continue
		}
		seen[c.Name] = true
		groupCols = append(groupCols, c.Name)
	}
	items = append(items, groupCols...)
	items = append(items, g.aggregates(tpl, 1+g.r.Intn(2))...)
	return items, groupCols
}

// orderLimit appends an ORDER BY over every output ordinal (random
// directions) and, sometimes, a LIMIT.
func (g *gen) orderLimit(sb *strings.Builder, nItems int) {
	if g.r.Intn(4) == 0 {
		return // no ordering, no limit
	}
	keys := make([]string, nItems)
	perm := g.r.Perm(nItems)
	for i, p := range perm {
		dir := ""
		if g.r.Intn(3) == 0 {
			dir = " desc"
		}
		keys[i] = fmt.Sprintf("%d%s", p+1, dir)
	}
	sb.WriteString(" order by " + strings.Join(keys, ", "))
	if g.r.Intn(2) == 0 {
		sb.WriteString(fmt.Sprintf(" limit %d", 1+g.r.Intn(64)))
	}
}
