// Package compiled is the second lowering backend of the ad-hoc SQL
// subsystem — an extension beyond the paper's fixed query catalog: it
// takes the same optimized logical plan internal/logical produces and
// emits a fused, data-centric executor in the Typer idiom (one
// tuple-at-a-time loop per pipeline, pipeline breakers at hash builds
// and aggregations), instead of lowering onto the vectorized operator
// layer. Expressions run as per-row closures over the ops of the
// program logical binds them to; pushed-down comparison filters are
// normalized to per-column range bounds. Every pipeline runs one block-staged loop:
// the bounds select each 1024-row block's qualifying rows branch-free
// with the internal/simd range kernels, on a multi-stage pipeline each
// probe whose build has an exact key filter or key index then narrows
// the selection to its key members, and the survivors go through the
// pipeline's per-row stages tuple at a time — or, on a pipeline with none,
// straight to its terminal, which folds whole blocks where it can
// (DESIGN.md §9). Pipelines run
// morsel-parallel under the shared internal/exec dispatcher with context
// cancellation, build into the shared internal/hashtable structures,
// and aggregate with the same two-phase spill/merge algorithm as
// internal/typer — only the execution paradigm differs from the
// Tectorwise lowering, exactly the paper's setup. The package registers
// as the Typer engine's ad-hoc SQL path, so every SQL text is
// executable on both engines and differentially testable.
package compiled

import (
	"fmt"
	"strings"

	"paradigms/internal/logical"
	"paradigms/internal/sql"
)

// The lowering pass compiles each pipeline of the plan's decomposition
// (logical.Decompose) — scan → filter cascade → probes of its build
// chains → terminal (hash-table build, grouped spill, global
// accumulate, or row collection). Where the vectorized lowering
// assembles operator trees over batches, this pass compiles every
// pipeline into a single fused loop driven row by row.

// gather copies one hash-table payload word into a frame slot at probe
// time (word 0 is the join key itself).
type gather struct {
	word int
	slot int
}

// step is one hash probe of the pipeline's fused loop.
type step struct {
	*logical.ProbeStep
	build *pipe

	gathers   []gather
	residuals []residual

	// Compiled probe-key accessors (exactly one non-nil).
	key32 []int32
	key64 []int64
}

// residual is a cross-chain equality enforced after a probe.
type residual struct {
	a, b u64Fn
}

// pipe is one compiled pipeline.
type pipe struct {
	*logical.Pipeline
	ord   int // 1-based position in execution order (explain labels)
	steps []*step
	slots int // frame width: one slot per gathered column

	loop loopShape // set once by shapeLoop, read by run
	fold []foldAgg // the final pipeline's block terminal (loopRowFree only), or nil

	// Compiled forms.
	filt   filt
	keyGet u64Fn   // build key (build pipelines)
	payGet []u64Fn // payload words (build pipelines)
}

// prog is a fully lowered query: pipelines in execution order (build
// pipelines before their prober, the final pipeline last).
type prog struct {
	pl    *logical.Plan
	lps   []*logical.Pipeline
	pipes []*pipe
	final *pipe
}

// lower compiles the plan's pipelines lps (logical.Decompose), with
// their expressions bound to ex, into fused pipelines, numbering each
// one's frame slots from its gathers in probe order
// (logical.(*Pipeline).Slot).
func lower(pl *logical.Plan, lps []*logical.Pipeline, ex logical.Exprs) (*prog, error) {
	pr := &prog{pl: pl, lps: lps, pipes: make([]*pipe, len(lps))}
	for i, lp := range lps {
		p := &pipe{Pipeline: lp, ord: i + 1}
		for _, ls := range lp.Steps {
			st := &step{ProbeStep: ls, residuals: make([]residual, len(ls.Residuals))}
			for _, b := range pr.pipes[:i] {
				if b.Pipeline == ls.Build {
					st.build = b
				}
			}
			for _, g := range ls.Gathers {
				st.gathers = append(st.gathers, gather{word: g.Word, slot: p.slots})
				p.slots++
			}
			p.steps = append(p.steps, st)
		}
		pr.pipes[i] = p
	}
	pr.final = pr.pipes[len(lps)-1]
	for i, p := range pr.pipes {
		if err := p.prep(ex.Resid(i)); err != nil {
			return nil, err
		}
		var agg *logical.Aggregate
		if p == pr.final {
			agg = pl.Agg
		}
		p.shapeLoop(agg, ex.Sink)
	}
	return pr, nil
}

// prep compiles the pipeline's row-level closures: the filter cascade
// (with resid, its residual conjuncts' programs), probe-key accessors,
// residual comparators, and build-side outputs.
func (p *pipe) prep(resid []logical.Prog) error {
	if err := p.compileFilters(resid); err != nil {
		return err
	}
	for _, st := range p.steps {
		k32, k64, err := logical.BaseViews(st.ProbeKey)
		if err != nil {
			return err
		}
		st.key32, st.key64 = k32, k64
		for i, cols := range st.Residuals {
			r := &st.residuals[i]
			var err error
			if r.a, err = p.u64Get(cols[0]); err != nil {
				return err
			}
			if r.b, err = p.u64Get(cols[1]); err != nil {
				return err
			}
		}
	}
	if p.Key != nil {
		var err error
		if p.keyGet, err = p.u64Get(p.Key); err != nil {
			return err
		}
		p.payGet = make([]u64Fn, len(p.Pays))
		for i, c := range p.Pays {
			if p.payGet[i], err = p.u64Get(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// loopShape is how the fused loop walks one block's qualifying rows.
type loopShape uint8

const (
	// loopRows runs survivors: string equalities, predicates and
	// probes row by row before the sink.
	loopRows loopShape = iota
	// loopProbeOne runs probeOne: one residual-free probe on a 32-bit
	// key and no row checks.
	loopProbeOne
	// loopRowFree has no per-row work: the block's rows go straight to
	// the terminal, folded whole when it has a fold (blockFold), else
	// one sink call per row.
	loopRowFree
)

// shapeLoop decides the pipeline's loop shape once, at lowering, from
// its per-row stages, and on a row-free pipeline whether agg (the final
// pipeline's aggregate with its slots' programs args, else nil) folds
// whole blocks. (*pipe).run is the only loop that reads the shape.
func (p *pipe) shapeLoop(agg *logical.Aggregate, args []logical.Prog) {
	f := &p.filt
	switch {
	case len(f.strs)+len(f.preds) > 0:
		p.loop = loopRows
	case len(p.steps) == 0:
		p.loop = loopRowFree
		p.fold = lowerFold(agg, args)
	case len(p.steps) == 1 && p.steps[0].key32 != nil && len(p.steps[0].residuals) == 0:
		p.loop = loopProbeOne
	default:
		p.loop = loopRows
	}
}

// ---------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------

// Explain renders the compiled pipeline decomposition of a plan — the
// EXPLAIN surface of cmd/sqlsh under \engine typer and the assertion
// surface of the plan-shape golden tests: breaker placement, build and
// probe sides, gathers, residuals, and the terminal of every pipeline,
// marked "fold" where it folds whole blocks (blockFold).
func Explain(pl *logical.Plan) (string, error) {
	pipes := logical.Decompose(pl)
	ex, err := logical.BindExprs(pl, pipes)
	if err != nil {
		return "", err
	}
	pr, err := lower(pl, pipes, ex)
	if err != nil {
		return "", err
	}
	fold := ""
	if pr.final.fold != nil {
		fold = " fold"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipelines: %d\n", len(pr.pipes))
	for _, p := range pr.pipes {
		fmt.Fprintf(&sb, "P%d: scan %s", p.ord, p.Scan.Table.Name)
		if p.Filters.RejectAll {
			sb.WriteString(" σ(false)")
		}
		for _, f := range p.Scan.Filters {
			fmt.Fprintf(&sb, " σ(%s)", sql.String(f))
		}
		for _, st := range p.steps {
			fmt.Fprintf(&sb, " → probe[P%d %s = %s]", st.build.ord, st.ProbeKey.Name, st.build.Key.Name)
			if len(st.Gathers) > 0 {
				names := make([]string, len(st.Gathers))
				for i, g := range st.Gathers {
					names[i] = g.Col.Name
				}
				fmt.Fprintf(&sb, " gather[%s]", strings.Join(names, " "))
			}
			for _, r := range st.Residuals {
				fmt.Fprintf(&sb, " residual(%s = %s)", r[0].Name, r[1].Name)
			}
		}
		switch {
		case p.Key != nil:
			names := make([]string, len(p.Pays))
			for i, c := range p.Pays {
				names[i] = c.Name
			}
			fmt.Fprintf(&sb, " → build[%s] pays[%s]", p.Key.Name, strings.Join(names, " "))
		case pl.Agg != nil && len(pl.Agg.Keys) > 0:
			names := make([]string, len(pl.Agg.Keys))
			for i, c := range pl.Agg.Keys {
				names[i] = c.Name
			}
			layout := ""
			if d := pl.Agg.Domain; d.Array() {
				layout = fmt.Sprintf(" array[%d]", d.Span)
			}
			fmt.Fprintf(&sb, " → groupby keys=[%s]%s aggs=[%s]", strings.Join(names, " "), layout, aggList(pl.Agg))
		case pl.Agg != nil:
			fmt.Fprintf(&sb, " → aggregate [%s]%s", aggList(pl.Agg), fold)
		default:
			items := make([]string, len(pl.Proj))
			for i, e := range pl.Proj {
				items[i] = sql.String(e)
			}
			fmt.Fprintf(&sb, " → project [%s]", strings.Join(items, ", "))
		}
		sb.WriteByte('\n')
	}
	if pl.Having != nil {
		fmt.Fprintf(&sb, "having %s\n", sql.String(pl.Having))
	}
	if len(pl.Sort) > 0 {
		fmt.Fprintf(&sb, "sort keys: %d\n", len(pl.Sort))
	}
	if pl.Limit >= 0 {
		fmt.Fprintf(&sb, "limit %d\n", pl.Limit)
	}
	return sb.String(), nil
}

func aggList(agg *logical.Aggregate) string {
	parts := make([]string, len(agg.Aggs))
	for i, a := range agg.Aggs {
		if a.Arg == nil {
			parts[i] = fmt.Sprintf("%s(*)", a.Op)
		} else {
			parts[i] = fmt.Sprintf("%s(%s)", a.Op, sql.String(a.Arg))
		}
	}
	return strings.Join(parts, ", ")
}
