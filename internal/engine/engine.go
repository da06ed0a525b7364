// Package engine is the single execution dispatch over the three SQL
// backends — an extension beyond the paper, in service of its method
// (§3): Typer and Tectorwise share everything except the execution
// paradigm, so everything that is not the paradigm lives here, once.
// Each backend exports only what runs a fully bound *logical.Plan
// ((*logical.Plan).{Execute, ExecuteStream, ExecutePartial},
// compiled.{Execute, ExecuteStream, ExecutePartial},
// hybrid.ExecuteRouted); Run binds the arguments, picks the backend and
// the mode, and turns executor panics into errors. The prepared-
// statement layer, the query service, the shards, and the facade all
// execute SQL through it.
package engine

import (
	"context"
	"fmt"

	"paradigms/internal/compiled"
	"paradigms/internal/hybrid"
	"paradigms/internal/logical"
	"paradigms/internal/registry"
)

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
	// materializing it; see logical.RowSink for the contract.
	Sink  logical.RowSink
	Chunk int
	// Partial stops before the finalization tail and returns the
	// shard-local state for (*logical.Plan).MergePartials.
	Partial bool
	// Router assigns hybrid's pipelines and learns from the run (nil =
	// cost heuristic). The pure engines ignore it.
	Router hybrid.Router
}

// Output is what a run produced. Used and Faulted are meaningful on
// error too.
type Output struct {
	// Result is the materialized result (nil when streaming or partial).
	Result *logical.Result
	// Partial is the pre-finalization state of a Partial run.
	Partial *logical.Partial
	// Used is the engine that ran — for hybrid, decorated with the
	// pipeline assignment of a successful run ("hybrid[t,v]").
	Used string
	// Faulted reports that the backend itself failed: the run returned
	// an error that is not the caller's — not a bad binding, an
	// unsupported engine or mode, a failing Sink, or a canceled ctx.
	Faulted bool
}

// watchSink remembers whether the caller's sink failed, so Run can
// tell a sink error from an executor error. The backends serialize
// sink calls and finish them before returning.
type watchSink struct {
	logical.RowSink
	failed bool
}

func (w *watchSink) SetCols(cols []logical.OutCol) error {
	err := w.RowSink.SetCols(cols)
	w.failed = w.failed || err != nil
	return err
}

func (w *watchSink) PushRows(rows [][]int64) error {
	err := w.RowSink.PushRows(rows)
	w.failed = w.failed || err != nil
	return err
}

// Run executes pl on the named engine. A canceled ctx returns ctx.Err()
// (the backends drain within one morsel and their partial output is
// discarded).
func Run(ctx context.Context, name string, pl *logical.Plan, opt Options) (out Output, err error) {
	out.Used = name
	if pl, err = pl.BindArgs(opt.Args); err != nil {
		return out, err
	}
	if opt.Partial && opt.Sink != nil {
		return out, fmt.Errorf("engine: a partial execution cannot stream")
	}
	var sink *watchSink
	if opt.Sink != nil {
		sink = &watchSink{RowSink: opt.Sink}
	}
	supported := true
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: internal error executing query on %s: %v", name, r)
		}
		if err == nil {
			err = ctx.Err()
		}
		out.Faulted = err != nil && supported && ctx.Err() == nil && (sink == nil || !sink.failed)
	}()

	switch name {
	case registry.Typer:
		switch {
		case opt.Partial:
			out.Partial, err = compiled.ExecutePartial(ctx, pl, opt.Workers)
		case sink != nil:
			err = compiled.ExecuteStream(ctx, pl, opt.Workers, opt.Chunk, sink)
		default:
			out.Result, err = compiled.Execute(ctx, pl, opt.Workers)
		}
	case registry.Tectorwise:
		switch {
		case opt.Partial:
			out.Partial, err = pl.ExecutePartial(ctx, opt.Workers, opt.VecSize)
		case sink != nil:
			err = pl.ExecuteStream(ctx, opt.Workers, opt.VecSize, opt.Chunk, sink)
		default:
			out.Result, err = pl.Execute(ctx, opt.Workers, opt.VecSize)
		}
	case registry.Hybrid:
		if opt.Partial {
			supported = false
			return out, fmt.Errorf("engine: %s has no partial-execution path", name)
		}
		if sink != nil {
			if err = sink.SetCols(pl.Cols); err != nil {
				return out, err
			}
		}
		var rep *hybrid.Report
		if out.Result, rep, err = hybrid.ExecuteRouted(ctx, pl, opt.Workers, opt.VecSize, opt.Router); err != nil {
			return out, err
		}
		out.Used += rep.Suffix()
		// No incremental stream of its own: materialize, then chunk.
		if sink != nil && ctx.Err() == nil {
			err = logical.StreamChunks(ctx, logical.NewStreamer(sink, nil), out.Result.Rows, opt.Chunk)
			out.Result = nil
		}
	default:
		supported = false
		err = fmt.Errorf("engine: unknown engine %q (%s | %s | %s)", name, registry.Typer, registry.Tectorwise, registry.Hybrid)
	}
	return out, err
}
