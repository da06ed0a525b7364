package server

import (
	"context"
	"sync/atomic"
	"time"

	"paradigms/internal/logical"
	"paradigms/internal/obs"
)

// Handle is a submitted query's ticket: identity, engine choice, timing,
// cancellation, and (once done) the result. Fields written by the service
// are published by the close of the done channel, so every accessor that
// documents "after Done" is race-free.
type Handle struct {
	id     uint64
	tenant string
	engine string
	query  string

	// Prepared-execution inputs (nil/empty for ordinary submissions).
	prep *Prepared
	args []string

	// sink receives streamed result batches (nil for materializing
	// submissions); see Req.Sink.
	sink logical.RowSink

	// col collects per-pipeline execution telemetry (nil for
	// uninstrumented submissions); see Req.Collector and Config.ObsBegin.
	col *obs.Collector

	cancel context.CancelFunc
	done   chan struct{}

	// Written by the service goroutine before close(done).
	submitted time.Time
	started   time.Time // zero if the query died in the queue
	finished  time.Time
	workers   int
	result    any
	err       error
	ran       string // engine that actually executed ("" if never ran)

	// latency mirrors finished.Sub(submitted) for lock-free reads
	// before Done (see Latency); 0 means still in flight.
	latency atomic.Int64
}

// ID is the service-assigned query id (1-based, in submission order).
func (h *Handle) ID() uint64 { return h.id }

// Tenant is the tenant the query was billed to (DefaultTenant when the
// submission did not name one).
func (h *Handle) Tenant() string { return h.tenant }

// Streaming reports whether the handle streams result batches to a
// sink (Req.Sink); such handles have a nil Result.
func (h *Handle) Streaming() bool { return h.sink != nil }

// Engine is the engine name the query was submitted with (possibly
// "auto" for prepared executions).
func (h *Handle) Engine() string { return h.engine }

// EngineUsed is the engine the query actually executed on — for an
// "auto" prepared submission, the hybrid with its per-pipeline
// assignment. It falls back to the submitted engine for queries that
// never ran (died in the admission queue). Valid after Done.
func (h *Handle) EngineUsed() string {
	if h.ran != "" {
		return h.ran
	}
	return h.engine
}

// Collector is the telemetry collector the query executed under (nil
// for uninstrumented submissions). Valid after Done.
func (h *Handle) Collector() *obs.Collector { return h.col }

// Prepared reports whether the handle is a prepared-statement
// execution, and Args returns its argument binding.
func (h *Handle) Prepared() bool { return h.prep != nil }

// Args is the argument binding of a prepared execution (nil for
// ordinary submissions).
func (h *Handle) Args() []string { return h.args }

// Query is the SQL text the handle was submitted with.
func (h *Handle) Query() string { return h.query }

// Done is closed when the query has finished (served, failed, or
// canceled).
func (h *Handle) Done() <-chan struct{} { return h.done }

// Cancel abandons the query: dequeues it if still waiting for admission,
// or drains its morsel workers if running. Safe to call at any time, from
// any goroutine, repeatedly.
func (h *Handle) Cancel() { h.cancel() }

// Wait blocks until the query finishes or ctx is done; in the latter case
// it cancels the query and still waits for the (prompt) teardown so the
// returned error is the query's final state. The value of a served
// materializing query is its *logical.Result; streamed and failed
// queries return nil.
func (h *Handle) Wait(ctx context.Context) (any, error) {
	select {
	case <-h.done:
	case <-ctx.Done():
		h.cancel()
		<-h.done
	}
	return h.result, h.err
}

// Result returns the outcome. It must only be called after Done is
// closed (Wait does this for you).
func (h *Handle) Result() (any, error) { return h.result, h.err }

// Workers is the worker share the query executed with (0 if it never
// started). Valid after Done.
func (h *Handle) Workers() int { return h.workers }

// QueueWait is the time spent waiting for admission. Valid after Done.
func (h *Handle) QueueWait() time.Duration {
	if h.started.IsZero() {
		return h.finished.Sub(h.submitted)
	}
	return h.started.Sub(h.submitted)
}

// Latency is the total submit-to-finish latency. Callable at any time:
// before the query finishes it reports the elapsed time so far (rather
// than a nonsense difference against the zero finish time); after Done
// it is the final submit-to-finish latency.
func (h *Handle) Latency() time.Duration {
	if d := h.latency.Load(); d != 0 {
		return time.Duration(d)
	}
	return time.Since(h.submitted)
}

// Prepared is a statement readied by Service.Prepare: the SQL text was
// parsed, bound, and optimized once (or fetched from the plan cache),
// and each SubmitPrepared/DoPrepared call executes it with a fresh
// argument binding — no per-execution parse or plan. Safe for
// concurrent use from many clients.
type Prepared struct {
	stmt  Stmt
	query string
}

// Query is the SQL text the statement was prepared from.
func (p *Prepared) Query() string { return p.query }

// Stmt exposes the underlying prepared statement (the facade's plan
// cache entry, a *prepcache.Statement) for callers that need its
// placeholder signature or plan.
func (p *Prepared) Stmt() Stmt { return p.stmt }
