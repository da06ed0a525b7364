// Package exec provides the morsel-driven intra-query parallelization
// framework shared by both engines (§6.1 of the paper).
//
// Work distribution follows HyPer's morsel-driven model: scans are split
// into morsels (ranges of ~100k tuples) claimed by workers from a shared
// atomic dispatcher, giving automatic load balancing. Pipeline-breaking
// operators synchronize workers with a reusable Barrier: e.g. a hash join
// first has all workers consume the build side into a shared hash table,
// then crosses a barrier, then starts probing. The framework is engine
// agnostic — Typer drives it with fused pipeline functions, Tectorwise
// with per-worker operator trees — which is exactly the paper's setup:
// same parallelization framework, different execution paradigm.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselSize is the number of tuples per morsel. HyPer uses
// ~100,000; morsels need to be big enough to amortize dispatch and small
// enough to load-balance.
const DefaultMorselSize = 100_000

// Morsel is a half-open tuple range [Begin, End) of a scanned relation.
type Morsel struct {
	Begin, End int
}

// Len returns the number of tuples in the morsel.
func (m Morsel) Len() int { return m.End - m.Begin }

// Dispatcher hands out morsels of a relation scan to workers. It is safe
// for concurrent use; claiming is a single atomic add.
//
// A dispatcher built with NewDispatcherCtx additionally observes query
// cancellation: morsel claims are the engines' natural preemption points
// (every worker passes through Next between morsels), so once the bound
// context is done Next reports exhaustion and workers drain out of their
// scan loops within one morsel's worth of work. The pipeline's later
// phases (barriers, merges) still run with all parties present — they just
// see empty scans — which keeps barrier teardown deadlock-free without
// any engine-side cancellation code.
type Dispatcher struct {
	next    atomic.Int64
	total   int64
	size    int64
	done    <-chan struct{} // non-nil when bound to a cancelable context
	counter *atomic.Int64   // per-consumer claim attribution, may be nil
	yield   func()          // morsel-level yield hook, may be nil
}

// NewDispatcher creates a dispatcher over total tuples with the given
// morsel size (DefaultMorselSize if size <= 0).
func NewDispatcher(total, size int) *Dispatcher {
	if size <= 0 {
		size = DefaultMorselSize
	}
	return &Dispatcher{total: int64(total), size: int64(size)}
}

// NewDispatcherCtx creates a dispatcher whose Next additionally returns
// ok=false once ctx is done, even if tuples remain. A nil or
// never-canceled context degenerates to NewDispatcher with zero per-claim
// overhead beyond a channel poll. If the context carries a morsel counter
// (WithMorselCounter), every claim is attributed to it. If the caller
// left size at the default (<= 0) and the context carries a morsel-size
// override (WithMorselSize), the override wins — explicit sizes (e.g.
// the 1-per-partition merge dispatchers) are never overridden.
func NewDispatcherCtx(ctx context.Context, total, size int) *Dispatcher {
	if size <= 0 {
		size = MorselSize(ctx)
	}
	d := NewDispatcher(total, size)
	if ctx != nil {
		d.done = ctx.Done()
		d.counter, _ = ctx.Value(morselCounterKey{}).(*atomic.Int64)
		d.yield, _ = ctx.Value(yieldKey{}).(func())
	}
	return d
}

// morselSizeKey is the context key of WithMorselSize.
type morselSizeKey struct{}

// WithMorselSize returns a context under which scan dispatchers bound to
// it (NewDispatcherCtx) that did not request an explicit morsel size use
// n tuples per morsel instead of DefaultMorselSize. Morsel claims are
// where cancellation is observed and yield hooks run (WithYield), so a
// scheduler that needs finer-grained preemption — e.g. to throttle a
// tenant's long scans while short queries of other tenants run — can
// shrink the scheduling quantum without touching engine code. Dispatch
// is a single atomic add, so even morsels of a few thousand tuples cost
// well under 1% overhead.
func WithMorselSize(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, morselSizeKey{}, n)
}

// MorselSize returns the morsel size scan dispatchers bound to ctx use:
// its WithMorselSize override, else DefaultMorselSize.
func MorselSize(ctx context.Context) int {
	if ctx != nil {
		if n, _ := ctx.Value(morselSizeKey{}).(int); n > 0 {
			return n
		}
	}
	return DefaultMorselSize
}

// morselCounterKey is the context key of WithMorselCounter.
type morselCounterKey struct{}

// WithMorselCounter returns a context under which every morsel claimed by
// a dispatcher bound to it (NewDispatcherCtx) is also counted on c —
// per-consumer attribution of scheduling activity, e.g. one counter per
// query service. This is the one morsel-accounting mechanism: a former
// process-wide counter overlapped with it and was removed.
func WithMorselCounter(ctx context.Context, c *atomic.Int64) context.Context {
	return context.WithValue(ctx, morselCounterKey{}, c)
}

// yieldKey is the context key of WithYield.
type yieldKey struct{}

// WithYield returns a context under which every dispatcher bound to it
// (NewDispatcherCtx) calls y before each morsel claim. Morsel claims
// are the engines' natural preemption points — every worker of every
// pipeline passes through Next between morsels — so y is where an
// inter-query scheduler injects morsel-level yielding: a long scan
// whose tenant is over its fair share can be paused for a bounded
// moment per morsel, ceding CPU to short queries, without any
// engine-side scheduling code. y MUST return (it may sleep briefly,
// never block indefinitely): workers park only between morsels, and a
// worker held forever would deadlock the pipeline's barriers.
func WithYield(ctx context.Context, y func()) context.Context {
	return context.WithValue(ctx, yieldKey{}, y)
}

// Next claims the next morsel. ok is false once the scan is exhausted or
// the dispatcher's context (NewDispatcherCtx) has been canceled.
func (d *Dispatcher) Next() (m Morsel, ok bool) {
	if d.done != nil {
		select {
		case <-d.done:
			return Morsel{}, false
		default:
		}
	}
	if d.yield != nil {
		d.yield()
	}
	begin := d.next.Add(d.size) - d.size
	if begin >= d.total {
		return Morsel{}, false
	}
	end := begin + d.size
	if end > d.total {
		end = d.total
	}
	if d.counter != nil {
		d.counter.Add(1)
	}
	return Morsel{Begin: int(begin), End: int(end)}, true
}

// Reset rewinds the dispatcher for reuse (e.g. repeated query runs).
func (d *Dispatcher) Reset() { d.next.Store(0) }

// Barrier is a reusable cyclic barrier for a fixed set of workers.
// The last worker to arrive runs the (optional) action registered for
// that generation before releasing the others — used, for example, to
// size a shared hash table directory after the build-side materialization
// completes and before insertion starts.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
}

// NewBarrier creates a barrier for parties workers.
func NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("exec: barrier needs at least one party")
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait. If action is non-nil it
// is executed exactly once per generation, by the last arriving worker,
// while the others are still blocked. Returns true for the worker that
// ran the action.
func (b *Barrier) Wait(action func()) bool {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		if action != nil {
			action()
		}
		b.waiting = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
	return false
}

// Parallel runs fn(workerID) on workers goroutines and waits for all of
// them. workers <= 0 selects GOMAXPROCS. It returns the worker count used.
func Parallel(workers int, fn func(worker int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		fn(0)
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
	return workers
}

// Once wraps sync.Once for per-pipeline shared-state initialization done
// by whichever worker arrives first (e.g. allocating a shared result
// buffer).
type Once = sync.Once
