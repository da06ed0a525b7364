package logical

import (
	"sort"

	"paradigms/internal/catalog"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/sql"
)

// The lowering pass turns the optimized logical plan into pipeline
// specifications over the physical operator layer. Each Node maps to
// one pipeline: a build-side chain becomes scan → filter cascade →
// probes of its own sub-chains → HashBuildSink; the final pipeline ends
// in the query's sink (grouped spill, global aggregate, or row
// collector). The specs are engine-shaped exactly like the hand-written
// plans in internal/plan: shared hash tables and dispatchers, per-worker
// operator trees, derived vectors in per-worker buffers carried through
// probes.

// colSrc locates a column's value within one pipeline: a base column of
// the pipeline's spine table, or a word gathered from a probe step's
// hash table.
type colSrc struct {
	base *catalog.Column
	step int
	word int
}

type gatherSpec struct {
	word int
	col  *catalog.Column
}

type stepSpec struct {
	join      *Join
	build     *pipeSpec
	probeKey  *catalog.Column
	gathers   []gatherSpec
	residuals [][2]colSrc
}

// pipeSpec is one compiled pipeline.
type pipeSpec struct {
	scan  *Scan
	steps []*stepSpec

	// Build-side output: the hash-table key column (a base column of
	// scan.Table) and payload columns in word order (word 1+i). Nil
	// keyCol marks the final pipeline.
	keyCol *catalog.Column
	pays   []*catalog.Column
	paySrc []colSrc

	srcOf map[*catalog.Column]colSrc

	// Per-execution shared state.
	ht        *hashtable.Table
	disp      *exec.Dispatcher
	rejectAll bool
}

type program struct {
	pipes []*pipeSpec // dependency order: build pipelines before their prober; final last
	final *pipeSpec
}

// lower compiles the plan's node tree into pipeline specs.
func lower(pl *Plan) (*program, error) {
	prog := &program{}
	needed := map[*catalog.Column]bool{}
	if pl.Agg != nil {
		for _, k := range pl.Agg.Keys {
			needed[k] = true
		}
		for _, s := range pl.Agg.Aggs {
			if s.Arg != nil {
				sql.WalkCols(s.Arg, func(c *catalog.Column) { needed[c] = true })
			}
		}
	}
	for _, e := range pl.Proj {
		sql.WalkCols(e, func(c *catalog.Column) { needed[c] = true })
	}
	final, err := compilePipe(pl.Root, sortedCols(needed), prog)
	if err != nil {
		return nil, err
	}
	final.rejectAll = pl.AlwaysFalse
	prog.final = final
	return prog, nil
}

// sortedCols renders a column set deterministic.
func sortedCols(set map[*catalog.Column]bool) []*catalog.Column {
	out := make([]*catalog.Column, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table.Name != out[j].Table.Name {
			return out[i].Table.Name < out[j].Table.Name
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func tablesUnder(n Node) map[*catalog.Table]bool {
	out := map[*catalog.Table]bool{}
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan:
			out[x.Table] = true
		case *Join:
			walk(x.Build)
			walk(x.Probe)
		}
	}
	walk(n)
	return out
}

// probeJoins lists the joins the pipeline rooted at n probes,
// innermost first.
func probeJoins(n Node) []*Join {
	var joins []*Join
	for cur := n; ; {
		j, ok := cur.(*Join)
		if !ok {
			return joins
		}
		joins = append([]*Join{j}, joins...)
		cur = j.Probe
	}
}

// compilePipe compiles the pipeline rooted at n, which must produce the
// needed columns for its consumer. Build pipelines append themselves to
// prog before their prober (execution order).
func compilePipe(n Node, needed []*catalog.Column, prog *program) (*pipeSpec, error) {
	spine := n.Spine()
	joins := probeJoins(n)

	ps := &pipeSpec{scan: spine, srcOf: map[*catalog.Column]colSrc{}}
	// Every pushed-down conjunct must be row-evaluable: the generic
	// fallback predicate is not allowed to fail (= silently drop rows)
	// at execution time.
	for _, f := range spine.Filters {
		if err := validateRowPred(f); err != nil {
			return nil, err
		}
	}

	// Everything this pipeline must materialize: consumer needs plus its
	// own residual operands.
	req := map[*catalog.Column]bool{}
	for _, c := range needed {
		req[c] = true
	}
	for _, j := range joins {
		for _, r := range j.Residuals {
			req[r[0]] = true
			req[r[1]] = true
		}
	}
	reqList := sortedCols(req)

	for i, j := range joins {
		chainTabs := tablesUnder(j.Build)
		// Columns the chain must expose as payloads (its hash key rides
		// in word 0 and needs no payload slot).
		var pays []*catalog.Column
		for _, c := range reqList {
			if chainTabs[c.Table] && c != j.BuildKey {
				pays = append(pays, c)
			}
		}
		bp, err := compilePipe(j.Build, pays, prog)
		if err != nil {
			return nil, err
		}
		bp.keyCol = j.BuildKey
		bp.pays = pays
		bp.paySrc = make([]colSrc, len(pays))
		for pi, c := range pays {
			bp.paySrc[pi] = bp.resolve(c)
		}
		st := &stepSpec{join: j, build: bp, probeKey: j.ProbeKey}
		// Gather every required column of this chain at the probe.
		for _, c := range reqList {
			if !chainTabs[c.Table] {
				continue
			}
			word := 0
			if c != j.BuildKey {
				word = 1 + indexOfCol(pays, c)
			}
			st.gathers = append(st.gathers, gatherSpec{word: word, col: c})
			ps.srcOf[c] = colSrc{step: i, word: word}
		}
		ps.steps = append(ps.steps, st)
		// Residuals attached to this join: both operands are available
		// by now (the planner placed them at the first such join).
		for _, r := range j.Residuals {
			st.residuals = append(st.residuals, [2]colSrc{ps.resolve(r[0]), ps.resolve(r[1])})
		}
	}
	prog.pipes = append(prog.pipes, ps)
	return ps, nil
}

func indexOfCol(cols []*catalog.Column, c *catalog.Column) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	panic("logical: column missing from payload list")
}

// resolve locates a column within the pipeline.
func (ps *pipeSpec) resolve(c *catalog.Column) colSrc {
	if c.Table == ps.scan.Table {
		return colSrc{base: c}
	}
	src, ok := ps.srcOf[c]
	if !ok {
		panic("logical: column " + c.Table.Name + "." + c.Name + " not materialized in pipeline over " + ps.scan.Table.Name)
	}
	return src
}
