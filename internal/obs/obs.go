// Package obs is the execution-telemetry extension layer: per-pipeline
// counters collected inside all three engines (typer, tectorwise,
// hybrid), a structured NDJSON query log, and Prometheus-text metrics.
//
// The collection discipline mirrors the engines' morsel parallelism:
// each worker accumulates plain int64 counters in locals while driving
// its pipeline, and merges them into the shared Collector exactly once
// per pipeline (one mutex acquisition per worker per pipeline — never
// inside the tuple/vector hot loop). Instrumentation is opt-in through
// the context: engines call FromContext once at dispatch time, and when
// no collector rides the context the instrumented paths collapse to the
// uninstrumented code with no extra work per batch. The overhead guard
// test in the root package pins this property. DESIGN.md §13 covers
// the architecture and the three consumer surfaces.
package obs

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"paradigms/internal/exec"
	"paradigms/internal/plan"
)

// PipeStat is the merged telemetry of one pipeline of one execution.
// Pipelines are indexed in lowering order: build pipelines first
// (bottom-up over the join DAG), the final pipeline last — the one
// decomposition both engine lowerings read (logical.Decompose), so
// stats from any engine (or a hybrid mix) line up pipe-for-pipe.
type PipeStat struct {
	// Index is the pipeline's position in lowering order.
	Index int `json:"pipe"`
	// Table is the driving scan's table name.
	Table string `json:"table"`
	// Build reports whether the pipeline terminates in a hash-table
	// build (true) or is the query's final pipeline (false).
	Build bool `json:"build,omitempty"`
	// Engine is the backend that ran the pipeline: "t" (typer-style
	// fused closures) or "v" (tectorwise vectors).
	Engine string `json:"engine,omitempty"`
	// RowsIn is the pipeline's input cardinality (the scan's rows).
	RowsIn int64 `json:"rows_in"`
	// RowsOut is the observed output cardinality: rows scattered into
	// the hash table for build pipelines, rows reaching the final
	// sink (pre-aggregation) for the final pipeline.
	RowsOut int64 `json:"rows_out"`
	// Batches counts the vectors a vectorized pipeline emitted
	// (0 for tuple-at-a-time pipelines).
	Batches int64 `json:"batches,omitempty"`
	// HTRows is the hash table's row count after a build pipeline.
	HTRows int64 `json:"ht_rows,omitempty"`
	// KeyBits is the size in bits of the build table's exact key filter
	// (hashtable.KeyFilter), 0 when the build got none.
	KeyBits int64 `json:"key_bits,omitempty"`
	// Layout is the hash-table layout the pipeline's terminal used:
	// LayoutIndex or LayoutHash for a build's directory, LayoutArray or
	// LayoutHash for a keyed final pipeline's aggregation, "" otherwise.
	Layout string `json:"layout,omitempty"`
	// Probes is the number of hash joins probed inside the pipeline.
	Probes int `json:"probes,omitempty"`
	// VecSize is the vector size a vectorized pipeline settled on.
	VecSize int `json:"vec,omitempty"`
	// Workers is the number of workers that drove the pipeline: the
	// query's worker budget, or fewer when its largest scan has fewer
	// morsels.
	Workers int `json:"workers,omitempty"`
	// Nanos is the pipeline's wall time: the maximum across workers,
	// since workers drive the pipeline concurrently.
	Nanos int64 `json:"nanos"`
	// EstRows is the planner's estimated output cardinality, placed
	// next to RowsOut so consumers can compute estimation drift.
	EstRows float64 `json:"est_rows"`
}

// Hash-table layouts (PipeStat.Layout).
const (
	// LayoutIndex is a key-indexed join directory (hashtable.KeyIndex):
	// slot k − min, no hash and no key filter.
	LayoutIndex = "index"
	// LayoutHash is a hashed directory: a join table's (with its key
	// filter when KeyBits > 0) or a hashed pre-aggregation.
	LayoutHash = "hash"
	// LayoutArray is an aggregation into an array over the group key's
	// dense domain (hashtable.AggArray).
	LayoutArray = "array"
)

// Selectivity is the pipeline's observed rows-out / rows-in ratio
// (0 when no input rows were seen).
func (p *PipeStat) Selectivity() float64 {
	if p.RowsIn <= 0 {
		return 0
	}
	return float64(p.RowsOut) / float64(p.RowsIn)
}

// Collector accumulates per-pipeline stats for one execution. All
// methods are safe for concurrent use; the intended pattern is
// describe-once from the driver (SetPipes, DescribePipe) and
// merge-once per worker per pipeline (PipeWorker).
type Collector struct {
	mu    sync.Mutex
	pipes []PipeStat
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// SetPipes sizes the pipeline slice. Idempotent: a second call with the
// same count (e.g. from a retried lowering) keeps existing stats.
func (c *Collector) SetPipes(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pipes) != n {
		c.pipes = make([]PipeStat, n)
		for i := range c.pipes {
			c.pipes[i].Index = i
		}
	}
}

// DescribePipe records the pipeline's static shape: driving table,
// build/final role, input cardinality, probe count, and the planner's
// output estimate.
func (c *Collector) DescribePipe(i int, table string, build bool, rowsIn int64, probes int, est float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.pipes) {
		return
	}
	p := &c.pipes[i]
	p.Table, p.Build, p.RowsIn, p.Probes, p.EstRows = table, build, rowsIn, probes, est
}

// SetPipeEngine records which backend ran the pipeline ("t" or "v").
func (c *Collector) SetPipeEngine(i int, engine string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.pipes) {
		c.pipes[i].Engine = engine
	}
}

// SetVec records the vector size a vectorized pipeline settled on.
func (c *Collector) SetVec(i, vec int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.pipes) {
		c.pipes[i].VecSize = vec
	}
}

// SetWorkers records how many workers drove pipeline i.
func (c *Collector) SetWorkers(i, workers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.pipes) {
		c.pipes[i].Workers = workers
	}
}

// SetHTRows records a build pipeline's published hash table: its row
// count and its key filter's size in bits.
func (c *Collector) SetHTRows(i int, rows, keyBits int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.pipes) {
		c.pipes[i].HTRows, c.pipes[i].KeyBits = rows, keyBits
	}
}

// SetLayout records the hash-table layout pipeline i's terminal used.
func (c *Collector) SetLayout(i int, layout string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.pipes) {
		c.pipes[i].Layout = layout
	}
}

// PipeWorker merges one worker's pipeline totals: output rows and
// batches add across workers; wall time takes the maximum, since the
// workers drive the pipeline concurrently. This is the single merge
// point — exactly one call per worker per pipeline.
func (c *Collector) PipeWorker(i int, rowsOut, batches, nanos int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.pipes) {
		return
	}
	p := &c.pipes[i]
	p.RowsOut += rowsOut
	p.Batches += batches
	if nanos > p.Nanos {
		p.Nanos = nanos
	}
}

// Pipes returns a snapshot of the per-pipeline stats.
func (c *Collector) Pipes() []PipeStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PipeStat, len(c.pipes))
	copy(out, c.pipes)
	return out
}

// ctxKey keys the collector in a context, following the pattern of
// exec.WithMorselSize: read once at dispatch time, nil means
// uninstrumented.
type ctxKey struct{}

// WithCollector attaches a collector to the context; engines observing
// the context record per-pipeline stats into it.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the context's collector, or nil when the
// execution is uninstrumented.
func FromContext(ctx context.Context) *Collector {
	if c, ok := ctx.Value(ctxKey{}).(*Collector); ok {
		return c
	}
	return nil
}

// CountingSink wraps a plan.Sink with worker-local row/batch counters.
// The counters are plain fields — each worker owns its wrapper — and the
// owner reads them after the stage finishes to merge via PipeWorker.
type CountingSink struct {
	Sink    plan.Sink
	Rows    int64
	Batches int64
}

// Consume implements plan.Sink.
func (s *CountingSink) Consume(b *plan.Batch) {
	s.Rows += int64(b.K)
	s.Batches++
	s.Sink.Consume(b)
}

// Finish implements plan.Sink.
func (s *CountingSink) Finish(bar *exec.Barrier, wid int) {
	s.Sink.Finish(bar, wid)
}

// ShapeHash is a short stable fingerprint of a plan's pipeline
// decomposition (tables, roles, probe counts) — the key feedback
// optimization joins query-log records on.
func ShapeHash(pipes []PipeStat) string {
	h := fnv.New64a()
	for _, p := range pipes {
		fmt.Fprintf(h, "%s|%v|%d;", p.Table, p.Build, p.Probes)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
