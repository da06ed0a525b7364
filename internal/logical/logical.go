// Package logical is the planner of the ad-hoc SQL subsystem — an
// extension beyond the paper's fixed query catalog. It turns a bound
// SELECT (internal/sql) into a logical plan, applies rule-based
// rewrites — constant folding, predicate pushdown to scans, projection
// pruning, and a cardinality-heuristic join-order pick that builds hash
// tables on the smaller, key-unique dimension side — and lowers the
// optimized plan onto the existing vectorized operator layer
// (internal/plan): scans become morsel Scans with FilterChain cascades,
// equi-joins become HashBuild/HashProbe pairs with payload gathers,
// leftover cross-chain equalities become Match residuals, and
// aggregation reuses the engines' shared two-phase spill/merge
// machinery. Ad-hoc SQL therefore executes morsel-parallel on the
// Tectorwise engine with cancellation and the service worker budget for
// free, and — for the queries the repo registers by hand — produces
// bit-identical results to the reference oracles.
package logical

import (
	"fmt"
	"strings"

	"paradigms/internal/catalog"
	"paradigms/internal/sql"
)

// Node is a logical plan operator: a base-table scan or a hash equi-join.
type Node interface {
	node()
	// Spine returns the scan the node's probe pipeline streams.
	Spine() *Scan
}

// Scan reads one table; Filters are the WHERE conjuncts pushed down to
// it (each references only this table), and Cols are the columns later
// operators need it to produce (projection pruning; filter-only columns
// are not listed).
type Scan struct {
	Table   *catalog.Table
	Filters []sql.Expr
	Cols    []*catalog.Column
}

// Join is a hash equi-join: Build's pipeline materializes a hash table
// keyed by BuildKey (a unique key of Build's spine table, so probes are
// N:1), and Probe's pipeline probes it with ProbeKey (a column of
// Probe's spine table). Residuals are equality predicates between
// columns that first become comparable after this probe (cross-chain
// equalities the join order could not use as hash keys).
type Join struct {
	Build, Probe       Node
	BuildKey, ProbeKey *catalog.Column
	Residuals          [][2]*catalog.Column
}

func (*Scan) node() {}
func (*Join) node() {}

// Spine implements Node.
func (s *Scan) Spine() *Scan { return s }

// Spine implements Node.
func (j *Join) Spine() *Scan { return j.Probe.Spine() }

// AggOp is the aggregate operator of one output slot.
type AggOp int

// Aggregate slot operators. OpFirst carries a group column that was
// demoted from the grouping key because a kept key functionally
// determines it (e.g. Q3 groups by l_orderkey only; o_orderdate rides
// along as a first-value aggregate).
const (
	OpSum AggOp = iota
	OpCount
	OpMin
	OpMax
	OpFirst
)

var aggOpNames = [...]string{"sum", "count", "min", "max", "first"}

func (op AggOp) String() string { return aggOpNames[op] }

// AggSpec is one aggregate slot of a grouped (or global) aggregation.
type AggSpec struct {
	Op AggOp
	// Arg is the aggregate input (nil for COUNT(*)); for OpFirst it is
	// the demoted group column reference.
	Arg sql.Expr
	// Src is the originating SELECT/HAVING/ORDER BY expression, used to
	// match references to this slot.
	Src sql.Expr
	// Type is the slot's result type.
	Type catalog.Type
}

// Slot locates an output value of a grouped query: a kept grouping key
// or an aggregate slot.
type Slot struct {
	Key bool
	Idx int
}

// Aggregate describes the aggregation phase of a grouped query.
type Aggregate struct {
	// GroupBy is the query's full grouping column list; Keys is the
	// reduced key set actually hashed (≤ 2 packable columns): columns
	// functionally determined by a kept key — via a table's unique key
	// and the join equivalence classes — are demoted to OpFirst slots.
	GroupBy []*catalog.Column
	Keys    []*catalog.Column
	Aggs    []AggSpec
	// ItemSlots maps each SELECT item to its output slot.
	ItemSlots []Slot
	// KeyOf maps every column whose value IS a kept key — the key
	// columns themselves plus grouping columns the planner substituted
	// to an equivalent spine column (Q3's o_orderkey ≡ l_orderkey) —
	// to the key index, for HAVING/ORDER BY resolution at merge time.
	KeyOf map[*catalog.Column]int
	// Domain is phase one's layout (aggDomain): the dense key domain
	// the workers aggregate into by array, or the zero KeyDomain when
	// they hash.
	Domain KeyDomain
}

// KeyDomain is the dense domain of a single group key in its word
// encoding: the words Min … Min+Span−1. The zero KeyDomain means the
// aggregation hashes.
type KeyDomain struct {
	Min  uint64
	Span int
}

// Array reports whether phase one aggregates into an array over the
// domain.
func (d KeyDomain) Array() bool { return d.Span > 0 }

// SortKey is one resolved ORDER BY key.
type SortKey struct {
	Slot Slot // grouped queries
	Item int  // projection queries: select-item index
	Desc bool
}

// OutCol describes one output column of the plan.
type OutCol struct {
	Name string
	Type catalog.Type
}

// Plan is an optimized logical plan ready for lowering: the join tree
// plus the aggregation/projection, HAVING, ORDER BY and LIMIT phases.
type Plan struct {
	Root Node
	// Agg is non-nil for grouped/aggregated queries; Proj lists the
	// projection expressions otherwise.
	Agg  *Aggregate
	Proj []sql.Expr

	Having sql.Expr // evaluated per merged group row
	Sort   []SortKey
	Limit  int // -1 = none

	Cols []OutCol

	// AlwaysFalse is set when a WHERE conjunct folded to a constant
	// false: the top scan is planned with a reject-all filter.
	AlwaysFalse bool

	// Params lists the statement's parameter slot types in placeholder
	// order (empty for ordinary statements). A parameterized plan is an
	// execution template: BindArgs substitutes one argument binding and
	// the engines run the bound copy, so a single optimized plan —
	// join order, pushdown, pruning all decided once — serves every
	// binding of a prepared statement.
	Params []catalog.Type
	// ParamConds are WHERE conjuncts referencing no tables but at
	// least one parameter (`? = 1`): they cannot fold at plan time and
	// are evaluated per execution by BindArgs (a false one rejects all
	// rows, like a plan-time constant false).
	ParamConds []sql.Expr

	// Hints is the cardinality-feedback override the plan was built
	// with (nil for a statically planned statement). It informed the
	// join order and keeps informing the plan's telemetry estimates,
	// so est-vs-observed drift is measured against what the optimizer
	// actually believed.
	Hints CardHints

	cat *catalog.Catalog
}

// Catalog is the schema the plan was bound and optimized against (and
// through its DB, the database the plan reads).
func (p *Plan) Catalog() *catalog.Catalog { return p.cat }

// Format renders the plan as an indented tree — the EXPLAIN output of
// cmd/sqlsh and the assertion surface of the plan-shape tests.
func (p *Plan) Format() string {
	var sb strings.Builder
	if p.Limit >= 0 {
		fmt.Fprintf(&sb, "limit %d\n", p.Limit)
	}
	if len(p.Sort) > 0 {
		sb.WriteString("sort")
		for i, k := range p.Sort {
			if i > 0 {
				sb.WriteByte(',')
			}
			dir := " asc"
			if k.Desc {
				dir = " desc"
			}
			fmt.Fprintf(&sb, " #%d%s", sortCol(p, k), dir)
		}
		sb.WriteByte('\n')
	}
	if p.Having != nil {
		fmt.Fprintf(&sb, "having %s\n", sql.String(p.Having))
	}
	if p.Agg != nil {
		keys := colNames(p.Agg.Keys)
		if len(p.Agg.Keys) == 0 {
			keys = "<global>"
		}
		fmt.Fprintf(&sb, "groupby keys=[%s]", keys)
		if len(p.Agg.Keys) != len(p.Agg.GroupBy) {
			fmt.Fprintf(&sb, " (reduced from [%s])", colNames(p.Agg.GroupBy))
		}
		if p.Agg.Domain.Array() {
			fmt.Fprintf(&sb, " array[%d]", p.Agg.Domain.Span)
		}
		sb.WriteString(" aggs=[")
		for i, a := range p.Agg.Aggs {
			if i > 0 {
				sb.WriteString(", ")
			}
			if a.Arg == nil {
				fmt.Fprintf(&sb, "%s(*)", a.Op)
			} else {
				fmt.Fprintf(&sb, "%s(%s)", a.Op, sql.String(a.Arg))
			}
		}
		sb.WriteString("]\n")
	} else {
		sb.WriteString("project [")
		for i, e := range p.Proj {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(sql.String(e))
		}
		sb.WriteString("]\n")
	}
	formatNode(&sb, p.Root, 0)
	return sb.String()
}

func sortCol(p *Plan, k SortKey) int {
	if p.Agg == nil {
		return k.Item
	}
	for i, s := range p.Agg.ItemSlots {
		if s == k.Slot {
			return i
		}
	}
	return -1
}

func colNames(cols []*catalog.Column) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return strings.Join(names, " ")
}

func formatNode(sb *strings.Builder, n Node, depth int) {
	ind := strings.Repeat("  ", depth)
	switch x := n.(type) {
	case *Scan:
		fmt.Fprintf(sb, "%sscan %s", ind, x.Table.Name)
		for _, f := range x.Filters {
			fmt.Fprintf(sb, " σ(%s)", sql.String(f))
		}
		fmt.Fprintf(sb, " cols=[%s]\n", colNames(x.Cols))
	case *Join:
		fmt.Fprintf(sb, "%shashjoin %s = %s", ind, x.ProbeKey.Name, x.BuildKey.Name)
		for _, r := range x.Residuals {
			fmt.Fprintf(sb, " residual(%s = %s)", r[0].Name, r[1].Name)
		}
		sb.WriteByte('\n')
		fmt.Fprintf(sb, "%s  build:\n", ind)
		formatNode(sb, x.Build, depth+2)
		fmt.Fprintf(sb, "%s  probe:\n", ind)
		formatNode(sb, x.Probe, depth+2)
	}
}
