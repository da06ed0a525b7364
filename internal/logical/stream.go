package logical

import (
	"context"
	"sync"
)

// DefaultStreamChunk is the row-batch granularity of streaming
// execution when the caller does not pick one: big enough to amortize
// frame encoding, small enough that first rows reach the client while
// the scan is still running.
const DefaultStreamChunk = 1024

// RowSink receives a streamed query result: the column header once,
// then row batches as the engines produce them. Both lowering backends
// serialize their calls (SetCols strictly before the first PushRows,
// PushRows never concurrently), so implementations need no locking. A
// non-nil error from either method aborts the query: the executor
// cancels its dispatchers and the workers drain within one morsel.
type RowSink interface {
	// SetCols delivers the output schema, before execution starts.
	SetCols(cols []OutCol) error
	// PushRows delivers one batch of result rows. The slice (and the
	// rows in it) must not be retained after the call returns.
	PushRows(rows [][]int64) error
}

// Streamer serializes concurrent batch pushes from morsel workers onto
// a RowSink and latches the sink's first error, canceling the query so
// a disconnected client drains the workers instead of filling a dead
// socket. It is the shared streaming tail of both lowering backends.
type Streamer struct {
	mu     sync.Mutex
	sink   RowSink
	err    error
	cancel context.CancelFunc
}

// NewStreamer wraps sink; cancel (may be nil) is invoked once on the
// first sink error.
func NewStreamer(sink RowSink, cancel context.CancelFunc) *Streamer {
	return &Streamer{sink: sink, cancel: cancel}
}

// Push delivers one batch, serialized across workers. After the sink
// has failed once, batches are dropped silently — the query is already
// draining via the canceled context.
func (s *Streamer) Push(rows [][]int64) {
	if len(rows) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err := s.sink.PushRows(rows); err != nil {
		s.err = err
		if s.cancel != nil {
			s.cancel()
		}
	}
}

// Err is the sink's first error (nil while the sink is healthy).
func (s *Streamer) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// StreamBuf is one worker's batch accumulator: rows collect locally
// (no contention) and flush to the shared Streamer at chunk
// granularity. Not safe for concurrent use — one per worker.
type StreamBuf struct {
	st    *Streamer
	chunk int
	rows  [][]int64
}

// NewBuf creates a per-worker accumulator flushing every chunk rows.
func (s *Streamer) NewBuf(chunk int) *StreamBuf {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	return &StreamBuf{st: s, chunk: chunk, rows: make([][]int64, 0, chunk)}
}

// Add appends one row, flushing when the chunk fills.
func (b *StreamBuf) Add(row []int64) {
	b.rows = append(b.rows, row)
	if len(b.rows) >= b.chunk {
		b.Flush()
	}
}

// Flush pushes any buffered rows.
func (b *StreamBuf) Flush() {
	if len(b.rows) == 0 {
		return
	}
	b.st.Push(b.rows)
	b.rows = b.rows[:0]
}

// Streamable reports whether the plan's rows can be flushed as they
// are produced: projections stream per morsel, grouped aggregates per
// merged spill partition. HAVING, ORDER BY, LIMIT, and global
// aggregates are inherently materializing — their rows only exist (or
// survive) after the last input row — so those plans stream their
// finalized rows in chunks instead.
func (pl *Plan) Streamable() bool {
	if len(pl.Sort) > 0 || pl.Having != nil || pl.Limit >= 0 {
		return false
	}
	return pl.Agg == nil || len(pl.Agg.Keys) > 0
}

// ExecuteStream runs the plan on the vectorized backend, flushing
// result batches to sink as they are produced (see Streamable for when
// that is truly incremental). SetCols is delivered before execution
// starts. chunk is the batch granularity (0 = DefaultStreamChunk). The
// streamed row multiset is exactly Execute's; row order within the
// stream is deterministic only under a total-order ORDER BY, the same
// contract as materialized execution. A sink error aborts the query
// and is returned; a canceled ctx returns ctx.Err() like Execute.
func (pl *Plan) ExecuteStream(ctx context.Context, workers, vecSize, chunk int, sink RowSink) error {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	if err := sink.SetCols(pl.Cols); err != nil {
		return err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := NewStreamer(sink, cancel)

	if pl.Streamable() {
		if _, err := pl.executeInto(sctx, workers, vecSize, st, chunk, nil); err != nil {
			return err
		}
		return firstErr(st.Err(), ctx.Err())
	}
	// Materializing shape: run to completion, then stream the
	// finalized rows in chunks.
	res, err := pl.Execute(ctx, workers, vecSize)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return StreamChunks(ctx, st, res.Rows, chunk)
}

// StreamChunks flushes pre-materialized rows through a Streamer in
// chunk-sized batches — the shared tail of both backends'
// materializing stream shapes.
func StreamChunks(ctx context.Context, st *Streamer, rows [][]int64, chunk int) error {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	for i := 0; i < len(rows); i += chunk {
		end := min(i+chunk, len(rows))
		st.Push(rows[i:end])
		if err := firstErr(st.Err(), ctx.Err()); err != nil {
			return err
		}
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
