// Package proto is the query service's network protocol (an extension
// beyond the paper): HTTP/JSON requests with NDJSON-framed streaming
// responses. A query response is
// a sequence of frames, one JSON object per line — a "cols" frame with
// the output schema, zero or more "rows" frames flushed as the engines
// produce batches (each morsel-merge's rows reach the socket while the
// scan is still running), and exactly one terminal frame: "end" with
// summary counters or "error" carrying the failure. Admission
// rejections never start a stream: they are plain HTTP errors (429 with
// a Retry-After header for queue-depth backpressure), so clients can
// retry without parsing a partial body.
//
// Decoders are strict — unknown fields, malformed frames, and trailing
// garbage are errors — so the conformance fixtures in testdata pin the
// wire format and the fuzzers can chase decoder panics.
package proto

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"paradigms/internal/catalog"
	"paradigms/internal/logical"
	"paradigms/internal/obs"
)

// Frame types of a streamed query response.
const (
	FrameCols    = "cols"
	FrameRows    = "rows"
	FrameAnalyze = "analyze"
	FrameEnd     = "end"
	FrameError   = "error"
)

// Error codes carried by error frames and HTTP error bodies.
const (
	CodeBadRequest = "bad_request" // malformed request or unknown engine
	CodeOverloaded = "overloaded"  // admission queue full; retry after backoff
	CodeClosed     = "closed"      // service is shutting down
	CodeExec       = "exec_error"  // the query failed while executing
	CodeCanceled   = "canceled"    // the query's context was canceled
)

// QueryRequest is the body of POST /v1/query. Exactly one SQL text per
// request; Args non-nil (with Prepared true) selects the
// prepared-statement path, binding one argument text per `?`
// placeholder.
type QueryRequest struct {
	// Tenant attributes the query for scheduling and stats
	// ("" = the server's default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Engine is "typer", "tectorwise", "hybrid", or — prepared only —
	// "auto". Empty defaults to "typer" for ad-hoc texts and "auto"
	// for prepared executions.
	Engine string `json:"engine,omitempty"`
	// SQL is the query text. Required.
	SQL string `json:"sql"`
	// Prepared selects the prepared-statement path: the text is
	// prepared (plan-cache hit after the first call per text) and
	// executed with Args bound to its placeholders.
	Prepared bool `json:"prepared,omitempty"`
	// Args are the placeholder bindings of a prepared execution.
	Args []string `json:"args,omitempty"`
	// Analyze instruments the execution with per-pipeline telemetry
	// (EXPLAIN ANALYZE over the wire): the response carries one extra
	// "analyze" frame, just before "end", with the observed per-pipeline
	// cardinalities and timings.
	Analyze bool `json:"analyze,omitempty"`
}

// Validate checks the decoded request's invariants.
func (q *QueryRequest) Validate() error {
	if strings.TrimSpace(q.SQL) == "" {
		return errors.New("proto: empty sql")
	}
	switch q.Engine {
	case "", "typer", "tectorwise", "hybrid":
	case "auto":
		if !q.Prepared {
			return errors.New(`proto: engine "auto" requires a prepared execution (auto is the prepared statements' name for hybrid; ad hoc, ask for hybrid)`)
		}
	default:
		return fmt.Errorf("proto: unknown engine %q (typer | tectorwise | hybrid | auto)", q.Engine)
	}
	if len(q.Args) > 0 && !q.Prepared {
		return errors.New("proto: args require prepared=true")
	}
	return nil
}

// DecodeQueryRequest strictly decodes one request body: unknown fields
// and trailing data are errors, and the request must validate.
func DecodeQueryRequest(r io.Reader) (*QueryRequest, error) {
	var q QueryRequest
	if err := decodeStrict(r, &q); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// PrepareRequest is the body of POST /v1/prepare.
type PrepareRequest struct {
	SQL string `json:"sql"`
}

// DecodePrepareRequest strictly decodes one prepare body.
func DecodePrepareRequest(r io.Reader) (*PrepareRequest, error) {
	var p PrepareRequest
	if err := decodeStrict(r, &p); err != nil {
		return nil, err
	}
	if strings.TrimSpace(p.SQL) == "" {
		return nil, errors.New("proto: empty sql")
	}
	return &p, nil
}

// PrepareResponse describes a prepared statement: its normalized text
// and placeholder signature. Preparing is idempotent — the statement is
// addressed by its text, so a later /v1/query with prepared=true hits
// the server's plan cache.
type PrepareResponse struct {
	SQL        string   `json:"sql"`
	NumParams  int      `json:"num_params"`
	ParamTypes []string `json:"param_types,omitempty"`
}

// Col is one output column of a result stream.
type Col struct {
	Name  string `json:"name"`
	Type  string `json:"type"`            // "int32" | "int64" | "numeric" | "date" | ...
	Scale int    `json:"scale,omitempty"` // decimal scale of numeric columns
}

// ColsOf renders the engine schema on the wire.
func ColsOf(cols []logical.OutCol) []Col {
	out := make([]Col, len(cols))
	for i, c := range cols {
		out[i] = Col{Name: c.Name, Type: c.Type.Kind.String(), Scale: c.Type.Scale}
	}
	return out
}

// KindOf parses a wire type name back to the catalog kind.
func KindOf(name string) (catalog.Kind, error) {
	for k := catalog.Int32; k <= catalog.String; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("proto: unknown column type %q", name)
}

// Frame is one line of a streamed query response. Which fields are
// populated depends on Type; DecodeFrame enforces the shape.
type Frame struct {
	Type string `json:"frame"`
	// cols
	Cols []Col `json:"cols,omitempty"`
	// rows
	Rows [][]int64 `json:"rows,omitempty"`
	// analyze (per-pipeline telemetry of an Analyze execution)
	Pipes []obs.PipeStat `json:"pipes,omitempty"`
	// end
	Engine    string   `json:"engine,omitempty"`
	RowCount  *int64   `json:"row_count,omitempty"`
	ElapsedMs *float64 `json:"elapsed_ms,omitempty"`
	// error
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// DecodeFrame strictly decodes and shape-checks one frame line. A
// caller decoding a whole stream reuses row storage through a Decoder.
func DecodeFrame(line []byte) (*Frame, error) {
	return new(Decoder).Decode(line)
}

// decodeFrameStrict is the reference decoder: encoding/json with
// unknown fields disallowed, then the per-type shape check. Decoder's
// rows-frame fast path accepts only lines this accepts, with the same
// result.
func decodeFrameStrict(line []byte) (*Frame, error) {
	var f Frame
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("proto: bad frame: %w", err)
	}
	if dec.More() {
		return nil, errors.New("proto: trailing data after frame")
	}
	switch f.Type {
	case FrameCols:
		if len(f.Cols) == 0 {
			return nil, errors.New("proto: cols frame without columns")
		}
		if f.Rows != nil || f.Error != "" || f.RowCount != nil || f.Pipes != nil {
			return nil, errors.New("proto: cols frame with extraneous fields")
		}
	case FrameRows:
		if len(f.Rows) == 0 {
			return nil, errors.New("proto: rows frame without rows")
		}
		if f.Cols != nil || f.Error != "" || f.RowCount != nil || f.Pipes != nil {
			return nil, errors.New("proto: rows frame with extraneous fields")
		}
	case FrameAnalyze:
		if len(f.Pipes) == 0 {
			return nil, errors.New("proto: analyze frame without pipes")
		}
		if f.Cols != nil || f.Rows != nil || f.Error != "" || f.RowCount != nil {
			return nil, errors.New("proto: analyze frame with extraneous fields")
		}
	case FrameEnd:
		if f.RowCount == nil || f.ElapsedMs == nil {
			return nil, errors.New("proto: end frame missing counters")
		}
		if f.Cols != nil || f.Rows != nil || f.Error != "" || f.Pipes != nil {
			return nil, errors.New("proto: end frame with extraneous fields")
		}
	case FrameError:
		if f.Error == "" || f.Code == "" {
			return nil, errors.New("proto: error frame missing error/code")
		}
		if f.Cols != nil || f.Rows != nil || f.RowCount != nil || f.Pipes != nil {
			return nil, errors.New("proto: error frame with extraneous fields")
		}
	default:
		return nil, fmt.Errorf("proto: unknown frame type %q", f.Type)
	}
	return &f, nil
}

// ErrorBody is the JSON body of every non-200 response. Overload
// rejections (HTTP 429) carry the scheduler's retry-after estimate both
// here (milliseconds) and in the standard Retry-After header (whole
// seconds, rounded up).
type ErrorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	Tenant       string `json:"tenant,omitempty"`
	Queued       int    `json:"queued,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// DecodeErrorBody strictly decodes one error body.
func DecodeErrorBody(r io.Reader) (*ErrorBody, error) {
	var e ErrorBody
	if err := decodeStrict(r, &e); err != nil {
		return nil, err
	}
	if e.Code == "" {
		return nil, errors.New("proto: error body without code")
	}
	return &e, nil
}

// decodeStrict decodes exactly one JSON value, rejecting unknown fields
// and trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("proto: bad request: %w", err)
	}
	if dec.More() {
		return errors.New("proto: trailing data after request")
	}
	return nil
}
