package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// QueryRecord is one NDJSON line of the structured query log: the
// normalized text, how the query was routed, and the per-pipeline
// observed cardinalities and timings — the substrate feedback-driven
// optimization mines (ROADMAP item 4).
type QueryRecord struct {
	// Time is the execution's completion time, RFC 3339.
	Time string `json:"time"`
	// Tenant attributes the execution ("" = default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Engine is the engine the client asked for (possibly "auto").
	Engine string `json:"engine"`
	// Used is the engine that actually ran, with the hybrid's
	// per-pipeline assignment decoration (e.g. "hybrid[t,v]").
	Used string `json:"used,omitempty"`
	// SQL is the normalized query text (prepcache.Normalize).
	SQL string `json:"sql"`
	// Prepared and Streamed record the execution path.
	Prepared bool `json:"prepared,omitempty"`
	Streamed bool `json:"streamed,omitempty"`
	// CatalogVersion pins which catalog the plan was built against.
	CatalogVersion uint64 `json:"catalog_version,omitempty"`
	// PlanShape is ShapeHash of the pipeline decomposition.
	PlanShape string `json:"plan_shape,omitempty"`
	// LatencyMs is the whole-query wall time in milliseconds, submit to
	// finish; QueueMs is the part of it spent waiting for admission.
	LatencyMs float64 `json:"latency_ms"`
	QueueMs   float64 `json:"queue_ms"`
	// Rows is the result cardinality (-1 when unknown, e.g. errors).
	Rows int64 `json:"rows"`
	// Err carries the failure when the execution did not succeed.
	Err string `json:"error,omitempty"`
	// Pipes is the per-pipeline telemetry (present when the server
	// ran the execution instrumented).
	Pipes []PipeStat `json:"pipes,omitempty"`
}

// QueryLog is a bounded, rotating NDJSON log: records append to path,
// and when the file would exceed maxBytes it is rotated once to
// path+".1" (the previous rotation is overwritten), so the log's disk
// footprint stays under 2×maxBytes.
type QueryLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	max  int64
	size int64
}

// OpenQueryLog opens (appending) or creates the log at path.
// maxBytes <= 0 selects a 64 MiB default bound.
func OpenQueryLog(path string, maxBytes int64) (*QueryLog, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open query log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: stat query log: %w", err)
	}
	return &QueryLog{f: f, path: path, max: maxBytes, size: st.Size()}, nil
}

// Write appends one record as a single NDJSON line, rotating first if
// the line would push the file over the bound.
func (l *QueryLog) Write(rec *QueryRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: marshal query record: %w", err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("obs: query log closed")
	}
	if l.size+int64(len(line)) > l.max && l.size > 0 {
		if err := l.rotateLocked(); err != nil && l.f == nil {
			// Rotation failed AND the handle could not be restored:
			// nothing to write into.
			return err
		}
		// A failed rotation with a restored handle degrades to
		// appending past the bound: the size cap is best-effort, and
		// growing beyond it beats dropping records. The next Write
		// retries the rotation.
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("obs: write query log: %w", err)
	}
	return nil
}

// rotateLocked moves the current file to path+".1" and starts fresh.
// On failure the handle is restored to a usable state: the un-renamed
// file is reopened appending (or, if even that fails, l.f is nil so
// Write and Close see a closed log instead of a closed-but-non-nil
// handle that every later Write would fail against and Close would
// double-close).
func (l *QueryLog) rotateLocked() error {
	l.f.Close()
	l.f = nil
	if err := os.Rename(l.path, l.path+".1"); err != nil {
		f, ferr := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return fmt.Errorf("obs: rotate query log: %v (reopen after failed rotate: %w)", err, ferr)
		}
		l.f = f
		return fmt.Errorf("obs: rotate query log: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("obs: reopen query log: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

// Close flushes and closes the log; Write after Close errors.
func (l *QueryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
