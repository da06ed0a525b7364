// Package client is the Go client of the query service's network
// protocol (internal/proto): it submits SQL over HTTP and decodes the
// streamed NDJSON frames incrementally, so callers iterate rows while
// the server is still producing them. The zero-dependency counterpart
// of a database/sql driver, used by cmd/serve's closed-loop driver and
// the serving test suites.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"paradigms/internal/obs"
	"paradigms/internal/proto"
)

// RetryError is a queue-depth rejection (HTTP 429): the server's
// scheduler estimated when capacity should free up.
type RetryError struct {
	Tenant     string
	Queued     int
	RetryAfter time.Duration
	Msg        string
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("server overloaded (tenant %q, %d queued): retry after %v", e.Tenant, e.Queued, e.RetryAfter)
}

// ServerError is any other non-200 response.
type ServerError struct {
	Status int
	Code   string
	Msg    string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server error (HTTP %d, %s): %s", e.Status, e.Code, e.Msg)
}

// QueryError is a failure reported by a terminal error frame —
// the query was admitted and (partially) executed before failing.
type QueryError struct {
	Code string
	Msg  string
}

func (e *QueryError) Error() string { return fmt.Sprintf("query failed (%s): %s", e.Code, e.Msg) }

// Client talks to one server. Safe for concurrent use.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Tenant attributes this client's queries ("" = server default).
	Tenant string
	// HTTP is the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

// New builds a client for the given base URL and tenant.
func New(base, tenant string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), Tenant: tenant}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) post(ctx context.Context, path string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.http().Do(req)
}

// decodeError turns a non-200 response into its typed error.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	body, err := proto.DecodeErrorBody(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return &ServerError{Status: resp.StatusCode, Code: "unknown", Msg: err.Error()}
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Old servers could drop a sub-millisecond estimate from the
		// body entirely (omitempty); a zero backoff would turn retry
		// loops into busy-waiting. Floor it client-side too.
		ra := time.Duration(body.RetryAfterMs) * time.Millisecond
		if ra < time.Millisecond {
			ra = time.Millisecond
		}
		return &RetryError{
			Tenant: body.Tenant, Queued: body.Queued,
			RetryAfter: ra,
			Msg:        body.Error,
		}
	}
	return &ServerError{Status: resp.StatusCode, Code: body.Code, Msg: body.Error}
}

// Query submits one ad-hoc SQL text and returns the streaming row
// iterator. engine "" picks the server default. The caller must drain
// or Close the rows.
func (c *Client) Query(ctx context.Context, engine, sql string) (*Rows, error) {
	return c.do(ctx, proto.QueryRequest{Tenant: c.Tenant, Engine: engine, SQL: sql})
}

// QueryPrepared submits one prepared execution: the text is prepared
// server-side (plan-cache hit after the first call per text) and run
// with args bound to its placeholders. engine "" resolves to "auto".
func (c *Client) QueryPrepared(ctx context.Context, engine, sql string, args ...string) (*Rows, error) {
	return c.do(ctx, proto.QueryRequest{Tenant: c.Tenant, Engine: engine, SQL: sql, Prepared: true, Args: args})
}

// QueryAnalyze is Query with telemetry: the server instruments the
// execution and streams an extra analyze frame (per-pipeline observed
// vs estimated cardinalities and timings), readable via Rows.Pipes
// after the stream ends.
func (c *Client) QueryAnalyze(ctx context.Context, engine, sql string) (*Rows, error) {
	return c.do(ctx, proto.QueryRequest{Tenant: c.Tenant, Engine: engine, SQL: sql, Analyze: true})
}

func (c *Client) do(ctx context.Context, q proto.QueryRequest) (*Rows, error) {
	resp, err := c.post(ctx, "/v1/query", q)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return newRows(resp.Body), nil
}

// newRows iterates the frames of one response body. The line buffer
// starts at the scanner's 4 KB and doubles as frames need, up to a
// 16 MB frame.
func newRows(body io.ReadCloser) *Rows {
	r := &Rows{body: body, sc: bufio.NewScanner(body)}
	r.sc.Buffer(nil, 16*1024*1024)
	return r
}

// Prepare validates and caches a statement server-side, returning its
// placeholder signature.
func (c *Client) Prepare(ctx context.Context, sql string) (*proto.PrepareResponse, error) {
	resp, err := c.post(ctx, "/v1/prepare", proto.PrepareRequest{SQL: sql})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var p proto.PrepareResponse
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

// Stats fetches /statsz as raw JSON.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &ServerError{Status: resp.StatusCode, Code: "unknown", Msg: "statsz failed"}
	}
	return io.ReadAll(resp.Body)
}

// Rows iterates a streamed result. Frames decode incrementally: Next
// returns each row as soon as its batch arrived, not when the query
// finished. After Next returns false, Err distinguishes completion from
// failure and Engine/RowCount/Elapsed report the end-frame summary.
type Rows struct {
	body io.ReadCloser
	sc   *bufio.Scanner
	// dec owns the storage of batch: each rows frame is parsed into the
	// arena the previous one used, so iterating allocates per stream,
	// not per row.
	dec proto.Decoder

	cols  []proto.Col
	batch [][]int64
	idx   int

	pipes []obs.PipeStat
	end   *proto.Frame
	err   error
}

// Cols is the output schema (available after the first Next call, or
// immediately if the caller first calls Advance).
func (r *Rows) Cols() []proto.Col { return r.cols }

// Next advances to the next row, fetching frames as needed. It returns
// false at the end of the stream or on error (check Err).
func (r *Rows) Next() bool {
	for {
		if r.idx < len(r.batch) {
			r.idx++
			return true
		}
		if r.err != nil || r.end != nil {
			return false
		}
		if !r.advance() {
			return false
		}
	}
}

// advance decodes one frame, returning false when the stream is done
// (end frame, error frame, or transport failure).
func (r *Rows) advance() bool {
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			r.err = err
		} else if r.end == nil {
			r.err = errors.New("client: stream truncated before end frame")
		}
		return false
	}
	line := r.sc.Bytes()
	if len(bytes.TrimSpace(line)) == 0 {
		return true
	}
	f, err := r.dec.Decode(line)
	if err != nil {
		r.err = err
		return false
	}
	switch f.Type {
	case proto.FrameCols:
		r.cols = f.Cols
	case proto.FrameRows:
		r.batch, r.idx = f.Rows, 0
	case proto.FrameAnalyze:
		r.pipes = f.Pipes
	case proto.FrameEnd:
		r.end = f
		return false
	case proto.FrameError:
		r.err = &QueryError{Code: f.Code, Msg: f.Error}
		return false
	}
	return true
}

// Row is the current row. It aliases the stream's row arena, which the
// next frame overwrites: valid until the next Next call, copy to keep
// (All does).
func (r *Rows) Row() []int64 { return r.batch[r.idx-1] }

// Err is the stream's failure (nil after clean completion).
func (r *Rows) Err() error { return r.err }

// Engine is the backend that executed the query (valid after the
// stream ended cleanly).
func (r *Rows) Engine() string {
	if r.end == nil {
		return ""
	}
	return r.end.Engine
}

// Pipes is the per-pipeline telemetry of a QueryAnalyze execution
// (nil otherwise; valid after the stream ended cleanly).
func (r *Rows) Pipes() []obs.PipeStat { return r.pipes }

// RowCount is the server-side row count from the end frame.
func (r *Rows) RowCount() int64 {
	if r.end == nil || r.end.RowCount == nil {
		return 0
	}
	return *r.end.RowCount
}

// Elapsed is the server-side execution latency from the end frame.
func (r *Rows) Elapsed() time.Duration {
	if r.end == nil || r.end.ElapsedMs == nil {
		return 0
	}
	return time.Duration(*r.end.ElapsedMs * float64(time.Millisecond))
}

// All drains the stream into a materialized row set and closes it.
func (r *Rows) All() ([][]int64, error) {
	defer r.Close()
	var out [][]int64
	for r.Next() {
		row := make([]int64, len(r.Row()))
		copy(row, r.Row())
		out = append(out, row)
	}
	return out, r.Err()
}

// Close releases the stream. Abandoning a stream mid-way closes the
// connection, which cancels the server-side query within one morsel.
func (r *Rows) Close() error { return r.body.Close() }
