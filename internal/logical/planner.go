package logical

import (
	"sort"
	"strings"

	"paradigms/internal/catalog"
	"paradigms/internal/sql"
)

// CardHints supplies observed cardinality history to the planner — the
// feedback half of the telemetry loop (internal/feedback implements it
// over accumulated per-pipeline observations). A nil CardHints, or one
// with no history for a table, falls back to the static per-predicate
// selectivity estimates.
type CardHints interface {
	// ScanSelectivity returns the observed fraction of the named
	// table's rows that survive its pushed-down filters in this
	// statement, and whether history exists.
	ScanSelectivity(table string) (float64, bool)
}

// PlanQuery turns a bound SELECT into an optimized logical plan:
// constant folding, predicate classification and pushdown, the
// join-order pick, residual placement, grouping-key reduction, and
// projection pruning — in that order.
func PlanQuery(sel *sql.Select, cat *catalog.Catalog) (*Plan, error) {
	return PlanQueryHints(sel, cat, nil)
}

// PlanQueryHints is PlanQuery with a cardinality-feedback override:
// where the join-order pick estimates a chain's pass fraction, the
// hinted (observed) selectivity of each table replaces the static
// per-predicate estimate, so skewed data re-orders the joins the way the
// measurements say it should. The hints are retained on the plan, so
// its telemetry estimates (est_rows in EXPLAIN ANALYZE and the query
// log) reflect them too — a re-planned statement whose observations
// match its hints reports no drift.
func PlanQueryHints(sel *sql.Select, cat *catalog.Catalog, hints CardHints) (*Plan, error) {
	p := &planner{
		cat:     cat,
		sel:     sel,
		hints:   hints,
		filters: map[*catalog.Table][]sql.Expr{},
	}
	for _, f := range sel.From {
		p.tables = append(p.tables, f.Table)
	}

	// Rewrite 1: constant folding (1 - 0.05 → 0.95, pre-scaled).
	foldSelect(sel)

	// Rewrite 2: classify WHERE conjuncts — single-table predicates push
	// down to their scan, two-column equalities become join edges.
	if err := p.classify(sel.Where); err != nil {
		return nil, err
	}

	// Rewrite 3: join order. Hash tables build on the smaller,
	// key-unique side; the largest table streams through the probes.
	root, err := p.orderTables(p.tables, p.edges, nil)
	if err != nil {
		return nil, err
	}

	pl := &Plan{Root: root, Limit: sel.Limit, AlwaysFalse: p.alwaysFalse, cat: cat,
		ParamConds: p.paramConds, Hints: p.hints}
	for _, prm := range sel.Params {
		pl.Params = append(pl.Params, prm.Typ)
	}

	if sel.Grouped {
		agg, err := p.planAggregate(pl)
		if err != nil {
			return nil, err
		}
		pl.Agg = agg
		agg.Domain = aggDomain(pl)
	} else {
		for _, it := range sel.Items {
			t := sql.TypeOf(it.Expr)
			if ref, ok := it.Expr.(*sql.ColRef); ok && ref.Col.Type.Kind == catalog.String {
				return nil, sql.Errf(ref.P, "string column %q cannot be an output column (strings may only be filtered)", ref.Name)
			}
			_ = t
			pl.Proj = append(pl.Proj, it.Expr)
		}
	}

	for _, it := range sel.Items {
		pl.Cols = append(pl.Cols, OutCol{Name: it.Name(), Type: sql.TypeOf(it.Expr)})
	}

	if sel.Having != nil {
		if err := p.validateHaving(sel.Having, pl.Agg); err != nil {
			return nil, err
		}
		pl.Having = sel.Having
	}

	if err := p.planSort(pl); err != nil {
		return nil, err
	}

	// Rewrite 4: projection pruning — each scan lists only the columns
	// later operators consume.
	prune(pl)
	return pl, nil
}

type edge struct{ a, b *catalog.Column }

func (e edge) touches(t *catalog.Table) bool { return e.a.Table == t || e.b.Table == t }

// side returns the edge's column on table t (nil if none).
func (e edge) side(t *catalog.Table) *catalog.Column {
	if e.a.Table == t {
		return e.a
	}
	if e.b.Table == t {
		return e.b
	}
	return nil
}

// other returns the edge's column not on table t.
func (e edge) other(t *catalog.Table) *catalog.Column {
	if e.a.Table == t {
		return e.b
	}
	return e.a
}

type planner struct {
	cat         *catalog.Catalog
	sel         *sql.Select
	hints       CardHints
	tables      []*catalog.Table
	filters     map[*catalog.Table][]sql.Expr
	edges       []edge
	alwaysFalse bool
	paramConds  []sql.Expr

	uf classes // equality classes over all edges
}

// ---------------------------------------------------------------------
// Predicate classification and pushdown
// ---------------------------------------------------------------------

// classify splits the WHERE conjunction: constant conjuncts fold away
// (a constant false marks the whole plan empty), single-table conjuncts
// push down to their scan, and two-column equalities become join edges.
// Anything else crossing tables is unsupported.
func (p *planner) classify(where sql.Expr) error {
	p.uf = classes{}
	var walk func(e sql.Expr) error
	walk = func(e sql.Expr) error {
		if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
			if err := walk(b.L); err != nil {
				return err
			}
			return walk(b.R)
		}
		// BETWEEN desugars into two conjuncts so the scan's selection
		// cascade gets two cheap primitives instead of one generic one.
		if bt, ok := e.(*sql.Between); ok && !bt.Negate {
			if err := walk(&sql.Binary{P: bt.P, Op: sql.OpGe, L: bt.X, R: bt.Lo}); err != nil {
				return err
			}
			return walk(&sql.Binary{P: bt.P, Op: sql.OpLe, L: bt.X, R: bt.Hi})
		}
		tabs := exprTables(e)
		switch len(tabs) {
		case 0:
			// A table-free conjunct with a parameter (`? = 1`) has no
			// plan-time value; BindArgs evaluates it per execution.
			if sql.HasParam(e) {
				p.paramConds = append(p.paramConds, e)
				return nil
			}
			v, err := evalConst(e)
			if err != nil {
				return err
			}
			if !v {
				p.alwaysFalse = true
			}
			return nil
		case 1:
			p.filters[tabs[0]] = append(p.filters[tabs[0]], e)
			return nil
		case 2:
			if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpEq {
				lr, lok := b.L.(*sql.ColRef)
				rr, rok := b.R.(*sql.ColRef)
				if lok && rok {
					p.edges = append(p.edges, edge{lr.Col, rr.Col})
					p.uf.union(lr.Col, rr.Col)
					return nil
				}
			}
		}
		return sql.Errf(e.Pos(), "unsupported cross-table predicate %s (only column = column equi-joins)", sql.String(e))
	}
	if where == nil {
		return nil
	}
	return walk(where)
}

// exprTables lists the distinct tables referenced by an expression, in
// first-reference order.
func exprTables(e sql.Expr) []*catalog.Table {
	var out []*catalog.Table
	seen := map[*catalog.Table]bool{}
	sql.WalkCols(e, func(c *catalog.Column) {
		if !seen[c.Table] {
			seen[c.Table] = true
			out = append(out, c.Table)
		}
	})
	return out
}

// classes is a union-find over equality edges. The planner's p.uf holds
// the query's column equivalence classes (valid on the final pipeline,
// where every edge has been enforced by a hash join or a residual
// match); orderWithSpine keeps a second one of the equalities a join
// tree enforces so far.
type classes map[*catalog.Column]*catalog.Column

func (uf classes) find(c *catalog.Column) *catalog.Column {
	r, ok := uf[c]
	if !ok || r == c {
		return c
	}
	root := uf.find(r)
	uf[c] = root
	return root
}

func (uf classes) union(a, b *catalog.Column) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf[ra] = rb
	}
}

// ---------------------------------------------------------------------
// Join order
// ---------------------------------------------------------------------

// orderTables builds the join tree for a table set: the spine (largest
// table, or the forced attachment table of a chain) streams through
// hash probes of the remaining tables' chains, most selective chain
// first. Equality edges not usable as key-unique hash joins become
// residual predicates on the join where both sides first meet, unless
// the joins and residuals below already imply them.
// If the preferred spine admits no key-unique attachment for some chain
// (possible when cardinalities tie, e.g. synthetic edge databases where
// every relation has the same row count — or none), the next candidate
// spine is tried before giving up, with the first failure reported.
func (p *planner) orderTables(tables []*catalog.Table, edges []edge, forced *catalog.Table) (Node, error) {
	if len(tables) == 1 {
		return &Scan{Table: tables[0], Filters: p.filters[tables[0]]}, nil
	}
	if forced != nil {
		return p.orderWithSpine(tables, edges, forced)
	}
	cands := append([]*catalog.Table(nil), tables...)
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Rows() != cands[j].Rows() {
			return cands[i].Rows() > cands[j].Rows()
		}
		return cands[i].Name < cands[j].Name
	})
	var firstErr error
	for _, spine := range cands {
		n, err := p.orderWithSpine(tables, edges, spine)
		if err == nil {
			return n, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// orderWithSpine builds the join tree streaming the given spine.
func (p *planner) orderWithSpine(tables []*catalog.Table, edges []edge, spine *catalog.Table) (Node, error) {
	var rest []*catalog.Table
	for _, t := range tables {
		if t != spine {
			rest = append(rest, t)
		}
	}
	var restEdges, spineEdges []edge
	for _, e := range edges {
		if e.touches(spine) {
			spineEdges = append(spineEdges, e)
		} else {
			restEdges = append(restEdges, e)
		}
	}

	var chains []chainSpec
	var residuals []edge

	for _, comp := range components(rest, restEdges) {
		inComp := map[*catalog.Table]bool{}
		for _, t := range comp {
			inComp[t] = true
		}
		var inner []edge
		for _, e := range restEdges {
			if inComp[e.a.Table] && inComp[e.b.Table] {
				inner = append(inner, e)
			}
		}
		var attach, valid []edge
		for _, e := range spineEdges {
			compCol := e.other(spine)
			if inComp[compCol.Table] {
				attach = append(attach, e)
				if compCol.Table.Key == compCol.Name {
					valid = append(valid, e)
				}
			}
		}
		switch {
		case len(attach) == 0:
			return nil, sql.Errf(sql.Pos{Line: 1, Col: 1},
				"no join path between %s and %s (cross joins are not supported)", spine.Name, tableNames(comp))
		case len(valid) == 0:
			return nil, sql.Errf(sql.Pos{Line: 1, Col: 1},
				"cannot join %s to %s: no join column is a unique key (N:M joins are not supported)", spine.Name, tableNames(comp))
		case len(valid) == 1:
			chains = append(chains, chainSpec{tables: comp, attach: valid[0], inner: inner})
			for _, e := range attach {
				if e != valid[0] {
					residuals = append(residuals, e)
				}
			}
		default:
			// Several key-unique attachments (Q5's orders/supplier
			// component): split the component into one chain per
			// attachment; cross-chain equalities become residuals.
			subChains, extra, err := p.splitComponent(comp, inner, valid, spine)
			if err != nil {
				return nil, err
			}
			chains = append(chains, subChains...)
			residuals = append(residuals, extra...)
			for _, e := range attach {
				used := false
				for _, sc := range subChains {
					if sc.attach == e {
						used = true
					}
				}
				if !used {
					residuals = append(residuals, e)
				}
			}
		}
	}

	// Probe order: the chain that lets the fewest spine rows through goes
	// first. Each chain table's filter selectivity — observed history
	// when hints carry it, static per-predicate estimates otherwise —
	// multiplies into the fraction of the attachment table's rows the
	// build keeps, which (N:1, every spine key present) is the fraction
	// of spine rows that survive the probe. Ties go to the smaller build.
	for i := range chains {
		pass := 1.0
		for _, t := range chains[i].tables {
			pass *= p.tableSelectivity(t)
		}
		chains[i].pass = pass
		chains[i].est = float64(chains[i].attach.other(spine).Table.Rows()) * pass
	}
	sort.SliceStable(chains, func(i, j int) bool {
		if chains[i].pass != chains[j].pass {
			return chains[i].pass < chains[j].pass
		}
		if chains[i].est != chains[j].est {
			return chains[i].est < chains[j].est
		}
		return chains[i].attach.other(spine).Table.Name < chains[j].attach.other(spine).Table.Name
	})

	node := Node(&Scan{Table: spine, Filters: p.filters[spine]})
	avail := map[*catalog.Table]bool{spine: true}
	enforced := classes{}
	pending := residuals
	for _, ch := range chains {
		build, err := p.orderTables(ch.tables, ch.inner, ch.attach.other(spine).Table)
		if err != nil {
			return nil, err
		}
		j := &Join{
			Build:    build,
			Probe:    node,
			BuildKey: ch.attach.other(spine),
			ProbeKey: ch.attach.side(spine),
		}
		enforced.addJoins(j)
		for _, t := range ch.tables {
			avail[t] = true
		}
		var still []edge
		for _, r := range pending {
			switch {
			case !avail[r.a.Table] || !avail[r.b.Table]:
				still = append(still, r)
			case enforced.find(r.a) != enforced.find(r.b):
				// Not yet implied by the joins and residuals below:
				// check it here.
				j.Residuals = append(j.Residuals, [2]*catalog.Column{r.a, r.b})
				enforced.union(r.a, r.b)
			}
		}
		pending = still
		node = j
	}
	if len(pending) > 0 {
		return nil, sql.Errf(sql.Pos{Line: 1, Col: 1}, "internal: unplaced join residual")
	}
	return node, nil
}

// addJoins records the equalities a join tree enforces: every hash
// join's key pair and every residual it checks.
func (uf classes) addJoins(n Node) {
	j, ok := n.(*Join)
	if !ok {
		return
	}
	uf.union(j.BuildKey, j.ProbeKey)
	for _, r := range j.Residuals {
		uf.union(r[0], r[1])
	}
	uf.addJoins(j.Build)
	uf.addJoins(j.Probe)
}

// chainSpec is one build-side chain hanging off a pipeline's spine.
type chainSpec struct {
	tables []*catalog.Table
	attach edge // join edge: spine side = probe key, chain side = build key
	inner  []edge
	pass   float64 // estimated fraction of spine rows surviving the probe
	est    float64 // estimated build rows
}

// splitComponent splits a component with several key-unique attachments
// into one chain per attachment table. Each chain claims the tables it
// reaches by BFS over key-unique edges (an edge is traversable toward T
// only if T's side is T's unique key, because T will be built into a
// hash table probed from nearer the spine), including edges implied by
// the equality classes: Q5's c_nationkey = s_nationkey = n_nationkey
// implies c_nationkey = n_nationkey. Attachments claim in descending
// order of their table's rows, so a filtered dimension reachable from
// two chains shrinks the larger build. An implied edge a chain walked
// joins its inner edges; original inner edges that end up crossing two
// chains are returned as residuals, while implied ones need no check of
// their own.
func (p *planner) splitComponent(comp []*catalog.Table, inner []edge, valid []edge, spine *catalog.Table) ([]chainSpec, []edge, error) {
	walk := append(append([]edge(nil), inner...), p.impliedEdges(comp, inner)...)
	owner := map[*catalog.Table]*catalog.Table{} // table → its chain's attachment table
	attachOf := map[*catalog.Table]edge{}        // a second edge to the same table stays a residual
	var roots []*catalog.Table
	for _, e := range valid {
		t := e.other(spine).Table
		if owner[t] == nil {
			owner[t] = t
			attachOf[t] = e
			roots = append(roots, t)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool {
		if roots[i].Rows() != roots[j].Rows() {
			return roots[i].Rows() > roots[j].Rows()
		}
		return roots[i].Name < roots[j].Name
	})
	var walked []edge // implied edges some chain claimed a table through
	for _, root := range roots {
		for frontier := []*catalog.Table{root}; len(frontier) > 0; {
			var next []*catalog.Table
			for _, s := range frontier {
				for i, e := range walk {
					if !e.touches(s) {
						continue
					}
					tCol := e.other(s)
					t := tCol.Table
					if owner[t] != nil || t.Key != tCol.Name {
						continue
					}
					owner[t] = root
					next = append(next, t)
					if i >= len(inner) {
						walked = append(walked, e)
					}
				}
			}
			sort.Slice(next, func(i, j int) bool { return next[i].Name < next[j].Name })
			frontier = next
		}
	}
	for _, t := range comp {
		if owner[t] == nil {
			return nil, nil, sql.Errf(sql.Pos{Line: 1, Col: 1},
				"cannot join table %s: no key-unique join path reaches it", t.Name)
		}
	}
	chainEdges := append(append([]edge(nil), inner...), walked...)
	var chains []chainSpec
	for _, root := range roots {
		var ts []*catalog.Table
		for _, t := range comp {
			if owner[t] == root {
				ts = append(ts, t)
			}
		}
		var in []edge
		for _, ie := range chainEdges {
			if owner[ie.a.Table] == root && owner[ie.b.Table] == root {
				in = append(in, ie)
			}
		}
		chains = append(chains, chainSpec{tables: ts, attach: attachOf[root], inner: in})
	}
	var residuals []edge
	for _, ie := range inner {
		if owner[ie.a.Table] != owner[ie.b.Table] {
			residuals = append(residuals, ie)
		}
	}
	return chains, residuals, nil
}

// impliedEdges lists the equalities between two of comp's tables that
// the equality classes imply but no inner edge states, keeping only
// those with a unique key on some side (the only ones a chain can walk).
func (p *planner) impliedEdges(comp []*catalog.Table, inner []edge) []edge {
	stated := map[edge]bool{}
	for _, e := range inner {
		stated[e], stated[edge{e.b, e.a}] = true, true
	}
	var out []edge
	for i, ta := range comp {
		for _, tb := range comp[i+1:] {
			for _, a := range ta.Columns() {
				for _, b := range tb.Columns() {
					if (ta.Key == a.Name || tb.Key == b.Name) && !stated[edge{a, b}] && p.uf.find(a) == p.uf.find(b) {
						out = append(out, edge{a, b})
					}
				}
			}
		}
	}
	return out
}

// components partitions tables into connected components under edges,
// each sorted by name for determinism.
func components(tables []*catalog.Table, edges []edge) [][]*catalog.Table {
	id := map[*catalog.Table]int{}
	for i, t := range tables {
		id[t] = i
	}
	parent := make([]int, len(tables))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ia, aok := id[e.a.Table]
		ib, bok := id[e.b.Table]
		if aok && bok {
			parent[find(ia)] = find(ib)
		}
	}
	groups := map[int][]*catalog.Table{}
	for i, t := range tables {
		r := find(i)
		groups[r] = append(groups[r], t)
	}
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		return groups[roots[i]][0].Name < groups[roots[j]][0].Name
	})
	out := make([][]*catalog.Table, 0, len(roots))
	for _, r := range roots {
		g := groups[r]
		sort.Slice(g, func(i, j int) bool { return g[i].Name < g[j].Name })
		out = append(out, g)
	}
	return out
}

// tableSelectivity is the estimated fraction of t's rows surviving its
// pushed-down filters: the statement's observed history when the
// planner has hints for the table, the static per-predicate estimates
// otherwise.
func (p *planner) tableSelectivity(t *catalog.Table) float64 {
	if p.hints != nil {
		if s, ok := p.hints.ScanSelectivity(t.Name); ok {
			return s
		}
	}
	sel := 1.0
	for _, f := range p.filters[t] {
		sel *= selectivity(f)
	}
	return sel
}

// selectivity is the planner's per-predicate reduction estimate:
// `col = literal | ?` keeps 1/NDV(col) of the rows, other shapes take
// fixed guesses.
func selectivity(e sql.Expr) float64 {
	switch x := e.(type) {
	case *sql.Binary:
		switch x.Op {
		case sql.OpEq:
			if c := constEqCol(x); c != nil {
				return 1 / float64(c.NDV())
			}
			return 0.1
		case sql.OpNe:
			return 0.9
		case sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return 0.3
		}
	case *sql.InList:
		return 0.2
	}
	return 0.5
}

// constEqCol returns the column of a `col = literal | ?` equality, in
// either operand order, or nil.
func constEqCol(b *sql.Binary) *catalog.Column {
	ref, ok := b.L.(*sql.ColRef)
	other := b.R
	if !ok {
		ref, ok = b.R.(*sql.ColRef)
		other = b.L
	}
	if !ok {
		return nil
	}
	switch other.(type) {
	case *sql.NumLit, *sql.StrLit, *sql.DateLit, *sql.Param:
		return ref.Col
	}
	return nil
}

func tableNames(ts []*catalog.Table) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return strings.Join(names, ", ")
}

// ---------------------------------------------------------------------
// Aggregation planning
// ---------------------------------------------------------------------

// aggDomain is the one place a grouped aggregation's phase-one layout
// is chosen, once per plan, and every engine reads it from the plan.
// The aggregation fills an array of span slots indexed by key − min
// (hashtable.AggArray) when all three hold: it has a single reduced
// group key; the key is of an integer kind; and the key's exact span
// (catalog.Column.Bounds) is no wider than the final pipeline's
// estimated rows — a domain the rows reaching it are expected to fill,
// where the hashed path would outgrow its cache-resident table and
// spill anyway. Anything else hashes (the zero KeyDomain). The domain
// is in the key's word encoding: a 32-bit key is zero-extended, so a
// key with values on both sides of zero is not contiguous there and
// hashes.
func aggDomain(pl *Plan) KeyDomain {
	agg := pl.Agg
	if len(agg.Keys) != 1 || pl.AlwaysFalse {
		return KeyDomain{}
	}
	k := agg.Keys[0]
	narrow := narrowKey(k)
	if !narrow && k.Type.Kind != catalog.Int64 && k.Type.Kind != catalog.Numeric {
		return KeyDomain{}
	}
	lo, hi, ok := k.Bounds()
	if !ok || narrow && lo < 0 && hi >= 0 {
		return KeyDomain{}
	}
	span := uint64(hi) - uint64(lo) + 1
	if span == 0 || float64(span) > estPipeRows(pl.Root, pl.Hints) {
		return KeyDomain{}
	}
	min := uint64(lo)
	if narrow {
		min = uint64(uint32(lo))
	}
	return KeyDomain{Min: min, Span: int(span)}
}

func (p *planner) planAggregate(pl *Plan) (*Aggregate, error) {
	agg := &Aggregate{}
	for _, g := range p.sel.GroupBy {
		col := g.(*sql.ColRef).Col
		switch col.Type.Kind {
		case catalog.String, catalog.Byte:
			return nil, sql.Errf(g.Pos(), "cannot group by %s column %q", col.Type.Kind, col.Name)
		}
		agg.GroupBy = append(agg.GroupBy, col)
	}

	// Grouping-key reduction: a group column functionally determined by
	// the kept keys — via a table's unique key, closed over the join
	// equivalence classes — is demoted to a first-value aggregate.
	agg.Keys = p.reduceKeys(agg.GroupBy)
	switch {
	case len(agg.Keys) > 2:
		return nil, sql.Errf(p.sel.GroupBy[0].Pos(),
			"group key too wide: %d independent columns (at most 2)", len(agg.Keys))
	case len(agg.Keys) == 2:
		for _, k := range agg.Keys {
			if k.Type.Kind != catalog.Int32 && k.Type.Kind != catalog.Date {
				return nil, sql.Errf(p.sel.GroupBy[0].Pos(),
					"group key too wide: two keys must both be 32-bit columns, %s is %s", k.Name, k.Type.Kind)
			}
		}
	}
	// Prefer the spine's own base column for a kept key when an
	// equivalence class offers one (Q3 groups by o_orderkey as the
	// lineitem pipeline's l_orderkey, exactly like the hand plan).
	spine := pl.Root.Spine().Table
	for i, k := range agg.Keys {
		agg.Keys[i] = p.substituteToTable(k, spine)
	}

	// Demoted group columns ride along as first-value slots.
	kept := map[*catalog.Column]bool{}
	for _, k := range agg.Keys {
		kept[k] = true
	}
	firstSlot := map[*catalog.Column]int{}
	for _, g := range agg.GroupBy {
		if kept[g] || p.determinedByKeysIsKept(agg.Keys, g) && kept[p.substituteToTable(g, spine)] {
			continue
		}
		if _, dup := firstSlot[g]; dup {
			continue
		}
		ref := &sql.ColRef{Name: g.Name, Col: g}
		firstSlot[g] = len(agg.Aggs)
		agg.Aggs = append(agg.Aggs, AggSpec{Op: OpFirst, Arg: ref, Src: ref, Type: g.Type})
	}

	addAgg := func(a *sql.Agg) int {
		for i, s := range agg.Aggs {
			if s.Op != OpFirst && sql.Equal(s.Src, a) {
				return i
			}
		}
		op := map[sql.AggFn]AggOp{sql.AggSum: OpSum, sql.AggCount: OpCount, sql.AggMin: OpMin, sql.AggMax: OpMax}[a.Fn]
		agg.Aggs = append(agg.Aggs, AggSpec{Op: op, Arg: a.Arg, Src: a, Type: a.Typ})
		return len(agg.Aggs) - 1
	}

	keyIndex := func(c *catalog.Column) int {
		cs := p.substituteToTable(c, spine)
		for i, k := range agg.Keys {
			if k == cs || k == c {
				return i
			}
		}
		return -1
	}
	agg.KeyOf = map[*catalog.Column]int{}
	for i, k := range agg.Keys {
		agg.KeyOf[k] = i
	}
	for _, g := range agg.GroupBy {
		if i := keyIndex(g); i >= 0 {
			agg.KeyOf[g] = i
		}
	}

	for _, it := range p.sel.Items {
		switch e := it.Expr.(type) {
		case *sql.Agg:
			agg.ItemSlots = append(agg.ItemSlots, Slot{Key: false, Idx: addAgg(e)})
		case *sql.ColRef:
			if i := keyIndex(e.Col); i >= 0 {
				agg.ItemSlots = append(agg.ItemSlots, Slot{Key: true, Idx: i})
				continue
			}
			if i, ok := firstSlot[e.Col]; ok {
				agg.ItemSlots = append(agg.ItemSlots, Slot{Key: false, Idx: i})
				continue
			}
			// A group column equal (via join) to a demoted one: add its
			// own first-value slot.
			ref := &sql.ColRef{Name: e.Col.Name, Col: e.Col}
			firstSlot[e.Col] = len(agg.Aggs)
			agg.Aggs = append(agg.Aggs, AggSpec{Op: OpFirst, Arg: ref, Src: ref, Type: e.Col.Type})
			agg.ItemSlots = append(agg.ItemSlots, Slot{Key: false, Idx: firstSlot[e.Col]})
		default:
			return nil, sql.Errf(it.Expr.Pos(), "select item %s must be a grouping column or aggregate", sql.String(it.Expr))
		}
	}

	// HAVING and ORDER BY may use aggregates that are not select items;
	// give them hidden slots.
	addHidden := func(e sql.Expr) {
		walkAggs(e, func(a *sql.Agg) { addAgg(a) })
	}
	if p.sel.Having != nil {
		addHidden(p.sel.Having)
	}
	for _, o := range p.sel.OrderBy {
		if o.Item < 0 {
			addHidden(o.Expr)
		}
	}
	return agg, nil
}

// determinedByKeysIsKept is a small helper: reports whether g's
// spine-substituted form already appears among the kept keys (so g does
// not need its own first-value slot when it IS a kept key spelled
// through an equivalent column).
func (p *planner) determinedByKeysIsKept(keys []*catalog.Column, g *catalog.Column) bool {
	for _, k := range keys {
		if p.uf.find(k) == p.uf.find(g) {
			return true
		}
	}
	return false
}

func walkAggs(e sql.Expr, fn func(*sql.Agg)) {
	switch x := e.(type) {
	case *sql.Agg:
		fn(x)
	case *sql.Binary:
		walkAggs(x.L, fn)
		walkAggs(x.R, fn)
	case *sql.Not:
		walkAggs(x.X, fn)
	case *sql.Between:
		walkAggs(x.X, fn)
		walkAggs(x.Lo, fn)
		walkAggs(x.Hi, fn)
	case *sql.InList:
		walkAggs(x.X, fn)
		for _, l := range x.List {
			walkAggs(l, fn)
		}
	}
}

// reduceKeys picks a minimal subset of the grouping columns that
// functionally determines the rest.
func (p *planner) reduceKeys(group []*catalog.Column) []*catalog.Column {
	var kept []*catalog.Column
	for _, g := range group {
		if !p.determined(kept, g) {
			kept = append(kept, g)
		}
	}
	for i := 0; i < len(kept); {
		others := make([]*catalog.Column, 0, len(kept)-1)
		others = append(others, kept[:i]...)
		others = append(others, kept[i+1:]...)
		if len(others) > 0 && p.determined(others, kept[i]) {
			kept = others
		} else {
			i++
		}
	}
	return kept
}

// determined computes the functional closure of the key set — table
// unique keys determine their table's columns, join equalities carry
// determination across tables — and reports whether g is inside it.
func (p *planner) determined(keys []*catalog.Column, g *catalog.Column) bool {
	det := map[*catalog.Column]bool{}
	for _, k := range keys {
		det[k] = true
	}
	for changed := true; changed; {
		changed = false
		for _, t := range p.tables {
			if t.Key == "" {
				continue
			}
			kc := t.Column(t.Key)
			if !det[kc] {
				continue
			}
			for _, c := range t.Columns() {
				if !det[c] {
					det[c] = true
					changed = true
				}
			}
		}
		for _, e := range p.edges {
			if det[e.a] != det[e.b] {
				det[e.a], det[e.b] = true, true
				changed = true
			}
		}
	}
	return det[g]
}

// substituteToTable maps a column to an equivalent column of the given
// table when one exists in its equality class (safe on the final
// pipeline, where every equality has been enforced).
func (p *planner) substituteToTable(c *catalog.Column, t *catalog.Table) *catalog.Column {
	if c.Table == t {
		return c
	}
	root := p.uf.find(c)
	for _, col := range t.Columns() {
		if p.uf.find(col) == root && col != c {
			return col
		}
	}
	return c
}

// validateHaving checks that HAVING only references grouping columns
// and aggregates (which all have slots by now).
func (p *planner) validateHaving(e sql.Expr, agg *Aggregate) error {
	if agg == nil {
		return sql.Errf(e.Pos(), "HAVING requires aggregation")
	}
	// Columns under aggregate calls are always fine; bare column
	// references must be grouping columns.
	var err error
	var bare func(x sql.Expr)
	bare = func(x sql.Expr) {
		switch n := x.(type) {
		case *sql.Agg:
			return
		case *sql.ColRef:
			if err == nil && !p.isGroupValue(agg, n.Col) {
				err = sql.Errf(n.P, "HAVING may only reference grouping columns and aggregates (column %q is neither)", n.Name)
			}
		case *sql.Binary:
			bare(n.L)
			bare(n.R)
		case *sql.Not:
			bare(n.X)
		case *sql.Between:
			bare(n.X)
			bare(n.Lo)
			bare(n.Hi)
		case *sql.InList:
			bare(n.X)
			for _, l := range n.List {
				bare(l)
			}
		}
	}
	bare(e)
	return err
}

func (p *planner) isGroupValue(agg *Aggregate, c *catalog.Column) bool {
	for _, g := range agg.GroupBy {
		if g == c {
			return true
		}
	}
	for _, k := range agg.Keys {
		if k == c {
			return true
		}
	}
	return false
}

// planSort resolves ORDER BY keys to output slots / item indexes.
func (p *planner) planSort(pl *Plan) error {
	for _, o := range p.sel.OrderBy {
		item := o.Item
		if item < 0 {
			for i, it := range p.sel.Items {
				if sql.Equal(o.Expr, it.Expr) {
					item = i
					break
				}
			}
		}
		if pl.Agg == nil {
			if item < 0 {
				return sql.Errf(o.Expr.Pos(), "ORDER BY %s must reference a selected column", sql.String(o.Expr))
			}
			pl.Sort = append(pl.Sort, SortKey{Item: item, Desc: o.Desc})
			continue
		}
		if item >= 0 {
			pl.Sort = append(pl.Sort, SortKey{Slot: pl.Agg.ItemSlots[item], Desc: o.Desc})
			continue
		}
		slot, err := p.resolveSlot(o.Expr, pl.Agg)
		if err != nil {
			return err
		}
		pl.Sort = append(pl.Sort, SortKey{Slot: slot, Desc: o.Desc})
	}
	return nil
}

// resolveSlot maps an aggregate call or grouping column to its output
// slot.
func (p *planner) resolveSlot(e sql.Expr, agg *Aggregate) (Slot, error) {
	switch x := e.(type) {
	case *sql.Agg:
		for i, s := range agg.Aggs {
			if s.Op != OpFirst && sql.Equal(s.Src, x) {
				return Slot{Key: false, Idx: i}, nil
			}
		}
	case *sql.ColRef:
		if i, ok := agg.KeyOf[x.Col]; ok {
			return Slot{Key: true, Idx: i}, nil
		}
		for i, s := range agg.Aggs {
			if s.Op == OpFirst {
				if ref, ok := s.Arg.(*sql.ColRef); ok && ref.Col == x.Col {
					return Slot{Key: false, Idx: i}, nil
				}
			}
		}
	}
	return Slot{}, sql.Errf(e.Pos(), "%s is not a grouping column or aggregate of this query", sql.String(e))
}

// ---------------------------------------------------------------------
// Projection pruning
// ---------------------------------------------------------------------

// prune lists, per scan, the columns later operators consume (filter
// columns are read by the scan's own cascade and not listed).
func prune(pl *Plan) {
	need := map[*catalog.Column]bool{}
	add := func(e sql.Expr) { sql.WalkCols(e, func(c *catalog.Column) { need[c] = true }) }
	if pl.Agg != nil {
		for _, k := range pl.Agg.Keys {
			need[k] = true
		}
		for _, s := range pl.Agg.Aggs {
			if s.Arg != nil {
				add(s.Arg)
			}
		}
	}
	for _, e := range pl.Proj {
		add(e)
	}
	var walk func(n Node)
	walk = func(n Node) {
		if j, ok := n.(*Join); ok {
			need[j.BuildKey] = true
			need[j.ProbeKey] = true
			for _, r := range j.Residuals {
				need[r[0]] = true
				need[r[1]] = true
			}
			walk(j.Build)
			walk(j.Probe)
		}
	}
	walk(pl.Root)
	var assign func(n Node)
	assign = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			x.Cols = nil
			for _, c := range x.Table.Columns() {
				if need[c] {
					x.Cols = append(x.Cols, c)
				}
			}
		case *Join:
			assign(x.Build)
			assign(x.Probe)
		}
	}
	assign(pl.Root)
}
