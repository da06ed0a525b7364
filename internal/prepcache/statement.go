package prepcache

import (
	"context"
	"sync/atomic"

	"paradigms/internal/catalog"
	"paradigms/internal/engine"
	"paradigms/internal/feedback"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
)

// Auto is the prepared statements' default engine name: an execution
// under it runs engine.Hybrid, the cost heuristic's per-pipeline mix.
const Auto = "auto"

// Statement is one prepared SQL text: the optimized parameterized plan
// plus its cardinality-feedback state. The plan is an
// immutable template — Execute binds arguments into a copy-on-write
// clone — so a Statement is safe for concurrent execution from many
// clients. With cardinality feedback enabled the plan pointer itself
// can advance (an atomic swap to a re-planned template when observed
// cardinalities drift from the estimates); in-flight executions finish
// on the plan they loaded.
type Statement struct {
	// Text is the normalized SQL the statement was prepared from.
	Text string

	plan    atomic.Pointer[logical.Plan]
	fb      atomic.Pointer[fbState]
	replans atomic.Uint64
}

// fbState is the statement's feedback wiring: where observations
// accumulate, which catalog version keys them, and how to rebuild the
// plan from hints.
type fbState struct {
	store   *feedback.Store
	catalog uint64
	replan  func(logical.CardHints) (*logical.Plan, error)
}

// NewStatement wraps an optimized plan as a prepared statement.
func NewStatement(text string, pl *logical.Plan) *Statement {
	s := &Statement{Text: text}
	s.plan.Store(pl)
	return s
}

// Plan returns the statement's current optimized plan template. With
// feedback enabled this advances across re-plans; callers snapshot it
// once per use.
func (s *Statement) Plan() *logical.Plan { return s.plan.Load() }

// EnableFeedback arms the statement's cardinality-feedback loop:
// successful executions record their per-pipeline observed
// cardinalities into store under (Text, catalogVersion, plan shape),
// and when the store reports sustained drift the statement rebuilds its
// plan through replan with the observed selectivities as hints,
// swapping the template in place. The first call wins; later calls are
// no-ops (the cache hands one Statement to many clients).
func (s *Statement) EnableFeedback(store *feedback.Store, catalogVersion uint64, replan func(logical.CardHints) (*logical.Plan, error)) {
	if store == nil {
		return
	}
	s.fb.CompareAndSwap(nil, &fbState{store: store, catalog: catalogVersion, replan: replan})
}

// Replans reports how many times feedback has swapped the plan.
func (s *Statement) Replans() uint64 { return s.replans.Load() }

// NumParams is the number of `?` placeholders.
func (s *Statement) NumParams() int { return len(s.Plan().Params) }

// ParamTypes lists the bound type of each placeholder in order.
func (s *Statement) ParamTypes() []catalog.Type { return s.Plan().Params }

// BindTexts parses one argument text per placeholder into the raw
// values Execute takes (see logical.(*Plan).BindTexts).
func (s *Statement) BindTexts(args []string) ([]int64, error) {
	return s.Plan().BindTexts(args)
}

// observeCtx returns the context to execute under and the collector
// feedback should read. With feedback armed, an uninstrumented context
// gets the statement's own collector attached — the engines populate
// whatever collector rides the context, so feedback sees per-pipeline
// telemetry whether or not the caller asked for EXPLAIN ANALYZE.
func (s *Statement) observeCtx(ctx context.Context) (context.Context, *obs.Collector) {
	if s.fb.Load() == nil {
		return ctx, nil
	}
	if col := obs.FromContext(ctx); col != nil {
		return ctx, col
	}
	col := obs.NewCollector()
	return obs.WithCollector(ctx, col), col
}

// observeFeedback folds one successful execution's telemetry into the
// feedback store and, when drift has been sustained, re-plans with the
// observed selectivities and swaps the statement's template. The swap
// changes the plan's pipeline shape, which re-keys subsequent feedback:
// the re-planned statement accumulates fresh state, now with estimates
// that match observations.
func (s *Statement) observeFeedback(pl *logical.Plan, col *obs.Collector) {
	fb := s.fb.Load()
	if fb == nil || col == nil {
		return
	}
	pipes := col.Pipes()
	if len(pipes) == 0 {
		return
	}
	key := feedback.Key{SQL: s.Text, Catalog: fb.catalog, Shape: obs.ShapeHash(pipes)}
	if !fb.store.Record(key, pipes) {
		return
	}
	hints := fb.store.Hints(key)
	if len(hints) == 0 || fb.replan == nil {
		return
	}
	np, err := fb.replan(hints)
	if err != nil || np == nil {
		return
	}
	if np.Format() == pl.Format() {
		// The observed cardinalities do not change the join order:
		// keep the current template.
		return
	}
	if s.plan.CompareAndSwap(pl, np) {
		s.replans.Add(1)
	}
}

// Execute is Run materializing with one argument binding: it returns
// the result and the engine that actually ran.
func (s *Statement) Execute(ctx context.Context, name string, args []int64, workers, vecSize int) (*logical.Result, string, error) {
	out, err := s.Run(ctx, name, engine.Options{Args: args, Workers: workers, VecSize: vecSize})
	return out.Result, out.Used, err
}

// Run executes the statement's current plan template through
// engine.Run on the named engine — engine.Typer (compiled fused
// pipelines), engine.Tectorwise (vectorized operator plans),
// engine.Hybrid (the cost heuristic's per-pipeline mix of the two), or
// Auto, another name for engine.Hybrid. Output.Used is the engine that
// actually ran — for hybrid and Auto, decorated with the pipeline
// assignment ("hybrid[t,v]"). Every successful execution feeds the feedback loop,
// streamed or materialized, on whichever engine ran.
func (s *Statement) Run(ctx context.Context, name string, opt engine.Options) (engine.Output, error) {
	pl := s.plan.Load()
	if name == Auto {
		name = engine.Hybrid
	}
	ctx, col := s.observeCtx(ctx)
	out, err := engine.Run(ctx, name, pl, opt)
	if err != nil {
		return out, err
	}
	s.observeFeedback(pl, col)
	return out, nil
}
