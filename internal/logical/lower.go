package logical

import (
	"math"
	"sort"

	"paradigms/internal/catalog"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/sql"
)

// The pipeline decomposition both lowerings read. Each Node of the
// optimized plan roots one pipeline: its spine scan, the filters
// pushed to that scan (classified once, below), one probe step per
// join on the probe chain, and a terminal — a hash-table build for a
// join's build side, the query's sink for the root. Decompose is the
// only walk that orders pipelines: internal/compiled fuses each one
// into a tuple-at-a-time loop, LowerVec assembles it from vectorized
// operators, the driver sizes and binds the shared state from it, and
// the telemetry and the hybrid's assignment describe it. Both
// lowerings therefore see the same pipelines, payload layouts and
// filters by construction (DESIGN.md §12).

// Pipeline is one pipeline of a plan's decomposition.
type Pipeline struct {
	Scan  *Scan
	Steps []*ProbeStep
	// Key and Pays are a build pipeline's hash-table key (a base column
	// of the spine, word 0) and payload columns (word 1+i). Key is nil
	// on the final pipeline.
	Key  *catalog.Column
	Pays []*catalog.Column
	// Filters is the spine scan's conjuncts, classified.
	Filters Filters

	// Per-execution state, bound by Drive: the morsel dispatcher over
	// the spine and, on a build pipeline, the table it publishes.
	ht   *hashtable.Table
	disp *exec.Dispatcher
}

// ProbeStep is one hash probe of a pipeline, innermost join first.
type ProbeStep struct {
	Join     *Join
	Build    *Pipeline
	ProbeKey *catalog.Column // a base column of the prober's spine
	// Gathers copies every column the pipeline needs from the build
	// chain out of its table row; Residuals are the cross-chain
	// equalities checked once both operands are available.
	Gathers   []Gather
	Residuals [][2]*catalog.Column
}

// Gather is one build-table word a probe copies out (word 0 is the
// key itself).
type Gather struct {
	Word int
	Col  *catalog.Column
}

// HT is the hash table a build pipeline publishes in the current
// execution (nil on the final pipeline).
func (p *Pipeline) HT() *hashtable.Table { return p.ht }

// Disp is the current execution's morsel dispatcher over the spine.
func (p *Pipeline) Disp() *exec.Dispatcher { return p.disp }

// Slot locates c within the pipeline: -1 for a base column of the
// spine, else c's position among the gathered columns in probe order —
// the fused loop's frame slot and the vectorized worker's gather
// buffer. It panics when the pipeline does not materialize c.
func (p *Pipeline) Slot(c *catalog.Column) int {
	if c.Table == p.Scan.Table {
		return -1
	}
	slot := 0
	for _, st := range p.Steps {
		for _, g := range st.Gathers {
			if g.Col == c {
				return slot
			}
			slot++
		}
	}
	panic("logical: column " + c.Table.Name + "." + c.Name + " not materialized in pipeline over " + p.Scan.Table.Name)
}

// Gathered is the pipeline's gathered-column count (its frame width).
func (p *Pipeline) Gathered() int {
	n := 0
	for _, st := range p.Steps {
		n += len(st.Gathers)
	}
	return n
}

// Decompose splits an optimized, bound plan into its pipelines in
// execution order: each build pipeline before its prober, the final
// pipeline last.
func Decompose(pl *Plan) []*Pipeline {
	var needed []*catalog.Column
	if pl.Agg != nil {
		needed = append(needed, pl.Agg.Keys...)
		for _, s := range pl.Agg.Aggs {
			if s.Arg != nil {
				sql.WalkCols(s.Arg, func(c *catalog.Column) { needed = append(needed, c) })
			}
		}
	}
	for _, e := range pl.Proj {
		sql.WalkCols(e, func(c *catalog.Column) { needed = append(needed, c) })
	}
	var pipes []*Pipeline
	decompose(pl.Root, sortedCols(needed), pl.AlwaysFalse, &pipes)
	return pipes
}

// decompose appends the pipeline rooted at n, after the build
// pipelines it probes; the pipeline must expose needed to its
// consumer. reject marks a plan-time constant false on the final
// pipeline.
func decompose(n Node, needed []*catalog.Column, reject bool, pipes *[]*Pipeline) *Pipeline {
	var joins []*Join // the probe chain, innermost first
	for cur := n; ; {
		j, ok := cur.(*Join)
		if !ok {
			break
		}
		joins = append(joins, j)
		cur = j.Probe
	}
	for i, k := 0, len(joins)-1; i < k; i, k = i+1, k-1 {
		joins[i], joins[k] = joins[k], joins[i]
	}

	// Everything the pipeline materializes: its consumer's columns plus
	// its own residual operands.
	req := needed[:len(needed):len(needed)] // appends copy: needed may be a payload list
	for _, j := range joins {
		for _, r := range j.Residuals {
			req = append(req, r[0], r[1])
		}
	}
	if len(req) > len(needed) {
		req = sortedCols(req)
	}

	p := &Pipeline{Scan: n.Spine()}
	p.Filters = classifyFilters(p.Scan, reject)
	for _, j := range joins {
		// The chain's hash key rides in word 0 and needs no payload.
		var pays []*catalog.Column
		for _, c := range req {
			if covers(j.Build, c.Table) && c != j.BuildKey {
				pays = append(pays, c)
			}
		}
		bp := decompose(j.Build, pays, false, pipes)
		bp.Key, bp.Pays = j.BuildKey, pays
		st := &ProbeStep{Join: j, Build: bp, ProbeKey: j.ProbeKey, Residuals: j.Residuals}
		for _, c := range req {
			if !covers(j.Build, c.Table) {
				continue
			}
			word := 0
			if c != j.BuildKey {
				for word < len(pays) && pays[word] != c {
					word++
				}
				word++
			}
			st.Gathers = append(st.Gathers, Gather{Word: word, Col: c})
		}
		p.Steps = append(p.Steps, st)
	}
	*pipes = append(*pipes, p)
	return p
}

// covers reports whether t is scanned under n.
func covers(n Node, t *catalog.Table) bool {
	if j, ok := n.(*Join); ok {
		return covers(j.Build, t) || covers(j.Probe, t)
	}
	return n.(*Scan).Table == t
}

// sortedCols returns cols without repeats in a deterministic order
// (table, then column name), sorting cols in place.
func sortedCols(cols []*catalog.Column) []*catalog.Column {
	sort.Slice(cols, func(i, j int) bool {
		if cols[i].Table.Name != cols[j].Table.Name {
			return cols[i].Table.Name < cols[j].Table.Name
		}
		return cols[i].Name < cols[j].Name
	})
	out := cols[:0]
	for i, c := range cols {
		if i == 0 || c != cols[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// Filters is a scan's pushed-down conjuncts, classified: the shape
// both lowerings map onto their own filter machinery.
type Filters struct {
	// Ranges holds one inclusive range per ordered column, in the order
	// the columns first appear: every col-vs-literal comparison, with
	// repeated bounds on a column intersected and col = v as [v, v].
	// A 32-bit column's range is clamped to int32.
	Ranges []Range
	// Strs are string = and <> comparisons against a literal.
	Strs []StrFilter
	// Residual is every other conjunct, evaluated row by row.
	Residual []sql.Expr
	// RejectAll is set when no row can pass: a range is empty or lies
	// outside its 32-bit column's type, or the plan folded to false.
	RejectAll bool
}

// Range is the inclusive range [Lo, Hi] of Col that passes a scan's
// ordering conjuncts.
type Range struct {
	Col    *catalog.Column
	Lo, Hi int64
}

// StrFilter is Col = Val (Eq) or Col <> Val over a string column.
type StrFilter struct {
	Col *catalog.Column
	Val string
	Eq  bool
}

// classifyFilters is the one scan-filter classifier. reject starts the
// result rejecting every row.
func classifyFilters(sc *Scan, reject bool) Filters {
	f := Filters{RejectAll: reject}
	for _, e := range sc.Filters {
		b, ok := e.(*sql.Binary)
		if !ok {
			f.Residual = append(f.Residual, e)
			continue
		}
		op, lit := b.Op, b.R
		ref, refOK := b.L.(*sql.ColRef)
		if !refOK {
			// literal CMP col: swap the operands and flip the comparison.
			ref, refOK = b.R.(*sql.ColRef)
			lit = b.L
			switch op {
			case sql.OpLt:
				op = sql.OpGt
			case sql.OpLe:
				op = sql.OpGe
			case sql.OpGt:
				op = sql.OpLt
			case sql.OpGe:
				op = sql.OpLe
			}
		}
		if !refOK || ref.Col.Table != sc.Table {
			f.Residual = append(f.Residual, e)
			continue
		}
		var v int64
		switch x := lit.(type) {
		case *sql.StrLit:
			if ref.Col.Type.Kind == catalog.String && (op == sql.OpEq || op == sql.OpNe) {
				f.Strs = append(f.Strs, StrFilter{Col: ref.Col, Val: x.Val, Eq: op == sql.OpEq})
				continue
			}
			ok = false
		case *sql.NumLit:
			v = x.Val
		case *sql.DateLit:
			v = int64(x.Days)
		default:
			ok = false
		}
		// The range col op v admits; one no int64 passes is empty.
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		switch op {
		case sql.OpEq:
			lo, hi = v, v
		case sql.OpGe:
			lo = v
		case sql.OpGt:
			lo = v + 1
			if v == math.MaxInt64 {
				lo, hi = 1, 0
			}
		case sql.OpLe:
			hi = v
		case sql.OpLt:
			hi = v - 1
			if v == math.MinInt64 {
				lo, hi = 1, 0
			}
		default:
			ok = false
		}
		if !ok || !ref.Col.Type.IsNumeric() {
			f.Residual = append(f.Residual, e)
			continue
		}
		i := 0
		for i < len(f.Ranges) && f.Ranges[i].Col != ref.Col {
			i++
		}
		if i == len(f.Ranges) {
			f.Ranges = append(f.Ranges, Range{Col: ref.Col, Lo: math.MinInt64, Hi: math.MaxInt64})
		}
		r := &f.Ranges[i]
		r.Lo, r.Hi = max(r.Lo, lo), min(r.Hi, hi)
	}
	for i := range f.Ranges {
		r := &f.Ranges[i]
		if narrowKey(r.Col) {
			r.Lo, r.Hi = max(r.Lo, math.MinInt32), min(r.Hi, math.MaxInt32)
		}
		f.RejectAll = f.RejectAll || r.Lo > r.Hi
	}
	return f
}
