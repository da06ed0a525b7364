package logical

import (
	"context"
	"slices"
	"sync"
)

// DefaultStreamChunk is the row-batch granularity of streaming
// execution when the caller does not pick one: big enough to amortize
// frame encoding, small enough that first rows reach the client while
// the scan is still running.
const DefaultStreamChunk = 1024

// RowSink receives a streamed query result: the column header once,
// then row batches as the engines produce them. The driver serializes
// its calls (SetCols strictly before the first PushRows, PushRows
// never concurrently), so implementations need no locking. A
// non-nil error from either method aborts the query: the executor
// cancels its dispatchers and the workers drain within one morsel.
type RowSink interface {
	// SetCols delivers the output schema, before execution starts.
	SetCols(cols []OutCol) error
	// PushRows delivers one batch of result rows. The slice (and the
	// rows in it) must not be retained after the call returns.
	PushRows(rows [][]int64) error
}

// streamer serializes concurrent batch pushes from morsel workers onto
// a RowSink and latches the sink's first error, canceling the query so
// a disconnected client drains the workers instead of filling a dead
// socket.
type streamer struct {
	mu     sync.Mutex
	sink   RowSink
	err    error
	cancel context.CancelFunc
}

// newStreamer wraps sink; cancel (may be nil) is invoked once on the
// first sink error.
func newStreamer(sink RowSink, cancel context.CancelFunc) *streamer {
	return &streamer{sink: sink, cancel: cancel}
}

// Push delivers one batch, serialized across workers. After the sink
// has failed once, batches are dropped silently — the query is already
// draining via the canceled context.
func (s *streamer) Push(rows [][]int64) {
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
func (s *streamer) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// rowBuf is one worker's output rows: the engines' inner loops write
// each row into the slot Next hands out, so no row is a heap object of
// its own. Slots are carved from slabs of chunk rows. Streaming, a full
// slab is pushed to the shared streamer and then reused — RowSink
// implementations must not retain what they are pushed; materializing
// (st == nil), full slabs are retained and rows keeps every header.
// Not safe for concurrent use — one per worker.
type rowBuf struct {
	st    *streamer
	width int
	chunk int
	slab  []int64
	rows  [][]int64
}

// newRowBuf creates a per-worker buffer of width-column rows in slabs
// of chunk rows (0 = DefaultStreamChunk); a non-nil st makes it flush
// every full slab instead of retaining it.
func newRowBuf(st *streamer, width, chunk int) *rowBuf {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	return &rowBuf{st: st, width: width, chunk: chunk}
}

// Next returns the next row to fill, flushing first when streaming and
// the slab is full. The row counts as produced.
func (b *rowBuf) Next() []int64 {
	i := len(b.rows) % b.chunk
	if i == 0 {
		if b.st != nil && b.slab != nil {
			b.Flush()
		} else {
			b.slab = make([]int64, b.chunk*b.width)
			b.rows = slices.Grow(b.rows, b.chunk)
		}
	}
	row := b.slab[i*b.width : (i+1)*b.width : (i+1)*b.width]
	b.rows = append(b.rows, row)
	return row
}

// Flush pushes any buffered rows of a streaming buffer; their slots are
// overwritten by the rows that follow.
func (b *rowBuf) Flush() {
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

// ExecuteStream is Execute flushing result batches to sink as they
// are produced (see Streamable for when that is truly incremental).
// SetCols is delivered before execution starts. chunk is the batch
// granularity (0 = DefaultStreamChunk). The streamed row multiset is
// exactly Execute's; row order within the stream is deterministic only
// under a total-order ORDER BY, the same contract as materialized
// execution. A sink error aborts the query and is returned; a canceled
// ctx returns ctx.Err().
func (pl *Plan) ExecuteStream(ctx context.Context, workers, vecSize, chunk int, sink RowSink) error {
	_, err := pl.driveVec(ctx, workers, vecSize, Mode{Sink: sink, Chunk: chunk})
	return err
}

// streamChunks flushes pre-materialized rows through a streamer in
// chunk-sized batches — the tail of the materializing stream shapes.
func streamChunks(ctx context.Context, st *streamer, rows [][]int64, chunk int) error {
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

// Stream delivers a materialized result the way a streaming execution
// would: the header, then the rows in chunk-sized batches (0 =
// DefaultStreamChunk). It is how a result gathered from shards reaches
// a streaming client.
func (r *Result) Stream(ctx context.Context, sink RowSink, chunk int) error {
	if err := sink.SetCols(r.Cols); err != nil {
		return err
	}
	return streamChunks(ctx, newStreamer(sink, nil), r.Rows, chunk)
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
