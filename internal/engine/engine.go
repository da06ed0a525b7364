// Package engine is the single execution dispatch over the three SQL
// engines — an extension beyond the paper, in service of its method
// (§3): Typer and Tectorwise share everything except the execution
// paradigm, so everything that is not the paradigm lives once: the
// pipeline driver (logical.Drive) runs every plan, and an engine is a
// row of constants fed to it — typer fuses every pipeline, tectorwise
// vectorizes every pipeline, hybrid assigns each pipeline by its static
// cost heuristic. Run binds the arguments, builds the named engine's
// policy, calls the driver in the requested mode and turns executor
// panics into errors. The prepared-statement layer, the query service,
// the shards, and the facade all execute SQL through it.
package engine

import (
	"context"
	"fmt"
	"strings"

	"paradigms/internal/compiled"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
)

// Engine names: the spellings used throughout the repo (facade Engine
// constants, the named-query table, the service, serve and sqlsh flags).
const (
	// Typer fuses every pipeline (internal/compiled).
	Typer = "typer"
	// Tectorwise vectorizes every pipeline (logical.LowerVec).
	Tectorwise = "tectorwise"
	// Hybrid runs each pipeline of a query on whichever backend — fused
	// or vectorized — suits it, exchanging data through the shared
	// materialization boundaries (internal/hybrid).
	Hybrid = "hybrid"
)

// Names lists the engines Run dispatches to.
func Names() []string { return []string{Typer, Tectorwise, Hybrid} }

// Options says how one plan runs. The zero value materializes an
// unparameterized plan on GOMAXPROCS workers.
type Options struct {
	// Args binds the plan's `?` placeholders, in order (BindArgs).
	Args []int64
	// Workers is the morsel-worker count (0 = GOMAXPROCS).
	Workers int
	// VecSize is the vectorized pipelines' vector size (0 = default;
	// on hybrid, 0 = micro-adaptive). Fused pipelines ignore it.
	VecSize int
	// Sink, if non-nil, streams the result (SetCols, then row batches
	// of Chunk rows, 0 = logical.DefaultStreamChunk) instead of
	// materializing it; see logical.RowSink for the contract. Every
	// engine streams incrementally where the plan is Streamable.
	Sink  logical.RowSink
	Chunk int
	// Partial stops before the finalization tail and returns the
	// shard-local state for (*logical.Plan).MergePartials, on every
	// engine.
	Partial bool
}

// Output is what a run produced. Used is meaningful on error too.
type Output struct {
	// Result is the materialized result (nil when streaming or partial).
	Result *logical.Result
	// Partial is the pre-finalization state of a Partial run.
	Partial *logical.Partial
	// Rows is the result cardinality of a successful streamed or
	// materialized run (0 for a partial one).
	Rows int64
	// Used is the engine that ran — for hybrid, decorated with the
	// pipeline assignment of a successful run ("hybrid[t,v]").
	Used string
}

// BaseName strips the hybrid assignment decoration Run puts on
// Output.Used ("hybrid[t,v]" → "hybrid"; undecorated names pass
// through). This is the one strip implementation: the service's
// per-engine stats and the metrics layer both resolve decorated names
// through it, so the decoration grammar cannot drift between
// consumers.
func BaseName(used string) string {
	if i := strings.IndexByte(used, '['); i >= 0 {
		return used[:i]
	}
	return used
}

// countSink counts the rows streamed. The driver serializes sink calls
// and finishes them before returning.
type countSink struct {
	logical.RowSink
	rows int64
}

func (c *countSink) PushRows(rows [][]int64) error {
	c.rows += int64(len(rows))
	return c.RowSink.PushRows(rows)
}

// Run executes pl on the named engine. A canceled ctx returns ctx.Err()
// (the workers drain within one morsel and their partial output is
// discarded).
func Run(ctx context.Context, name string, pl *logical.Plan, opt Options) (out Output, err error) {
	out.Used = name
	if pl, err = pl.BindArgs(opt.Args); err != nil {
		return out, err
	}
	if opt.Partial && opt.Sink != nil {
		return out, fmt.Errorf("engine: a partial execution cannot stream")
	}
	mode := logical.Mode{Chunk: opt.Chunk, Partial: opt.Partial}
	var sink *countSink
	if opt.Sink != nil {
		sink = &countSink{RowSink: opt.Sink}
		mode.Sink = sink
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: internal error executing query on %s: %v", name, r)
		}
		if err == nil {
			err = ctx.Err()
		}
	}()

	// The engines' whole difference: which lowering runs each pipeline.
	var pol logical.Policy
	switch name {
	case Typer:
		pol.Fused, err = compiled.LowerProgram(pl)
	case Tectorwise:
		pol.VecSize = opt.VecSize
		pol.Vec, err = logical.LowerVec(pl)
	case Hybrid:
		pol, err = hybrid.Policy(pl, opt.VecSize)
	default:
		err = fmt.Errorf("engine: unknown engine %q (%s)", name, strings.Join(Names(), " | "))
	}
	if err != nil {
		return out, err
	}
	res, err := logical.Drive(ctx, pl, opt.Workers, pol, mode)
	if err != nil {
		return out, err
	}
	out.Result, out.Partial = res.Result, res.Partial
	switch {
	case sink != nil:
		out.Rows = sink.rows
	case out.Result != nil:
		out.Rows = int64(len(out.Result.Rows))
	}
	if name == Hybrid {
		out.Used += (&hybrid.Report{Assign: pol.Assign}).Suffix()
	}
	return out, nil
}
