package proto

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/server"
	"paradigms/internal/simd"
)

// Server serves the protocol over HTTP on behalf of a query service:
//
//	POST /v1/query   — execute one SQL text, streaming NDJSON frames
//	POST /v1/prepare — prepare a text (idempotent; warms the plan cache)
//	GET  /statsz     — aggregate + per-tenant service stats as JSON
//	GET  /metricsz   — service counters + latency histograms, Prometheus text
//	GET  /healthz    — liveness
//
// The zero value is not usable; construct with NewServer.
type Server struct {
	svc     *server.Service
	now     func() time.Time
	metrics *obs.Metrics
}

// NewServer wraps a query service. now is injectable for the golden
// conformance fixtures (nil = time.Now).
func NewServer(svc *server.Service, now func() time.Time) *Server {
	if now == nil {
		now = time.Now
	}
	return &Server{svc: svc, now: now}
}

// WithMetrics attaches the shared histogram registry rendered by
// /metricsz (the same registry the facade's ObsEnd hook feeds), and
// returns the server for chaining. Without it /metricsz serves the
// service counters alone.
func (s *Server) WithMetrics(m *obs.Metrics) *Server {
	s.metrics = m
	return s
}

// Handler builds the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/prepare", s.handlePrepare)
	mux.HandleFunc("/statsz", s.handleStats)
	mux.HandleFunc("/metricsz", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	return mux
}

// httpError writes a non-200 JSON error response. Overload rejections
// also carry the standard Retry-After header (whole seconds, rounded
// up) alongside the millisecond estimate in the body.
func httpError(w http.ResponseWriter, status int, body ErrorBody) {
	w.Header().Set("Content-Type", "application/json")
	if body.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((body.RetryAfterMs+999)/1000, 10))
	}
	w.WriteHeader(status)
	raw, _ := json.Marshal(body)
	w.Write(append(raw, '\n'))
}

// errCode classifies an execution error for the terminal frame.
func errCode(err error) string {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	default:
		return CodeExec
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, ErrorBody{Error: "POST only", Code: CodeBadRequest})
		return
	}
	q, err := DecodeQueryRequest(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	engine := q.Engine
	if engine == "" {
		if q.Prepared {
			engine = "auto"
		} else {
			engine = "typer"
		}
	}

	req := server.Req{Tenant: q.Tenant, Engine: engine}
	if q.Prepared {
		p, err := s.svc.Prepare(q.SQL)
		if err != nil {
			status, body := submitError(q.Tenant, err)
			httpError(w, status, body)
			return
		}
		req.Prep, req.Args = p, q.Args
	} else {
		req.Query = q.SQL
	}

	sink := &ndjsonSink{w: w}
	defer sink.release()
	req.Sink = sink
	if q.Analyze {
		req.Collector = obs.NewCollector()
	}

	start := s.now()
	h, err := s.svc.SubmitReq(r.Context(), req)
	if err != nil {
		status, body := submitError(q.Tenant, err)
		httpError(w, status, body)
		return
	}
	_, err = h.Wait(r.Context())

	// All sink pushes happen before Wait returns, so reading the sink
	// state and writing the terminal frame are race-free.
	if err != nil && !sink.started() {
		// Failed before producing any frame (parse/plan/bind errors):
		// still a clean HTTP error, no partial stream.
		httpError(w, http.StatusUnprocessableEntity, ErrorBody{Error: err.Error(), Code: errCode(err)})
		return
	}
	if err != nil {
		sink.frame(Frame{Type: FrameError, Error: err.Error(), Code: errCode(err)})
		return
	}
	if req.Collector != nil {
		if pipes := req.Collector.Pipes(); len(pipes) > 0 {
			sink.frame(Frame{Type: FrameAnalyze, Pipes: pipes})
		}
	}
	n := sink.rowCount()
	elapsed := float64(s.now().Sub(start)) / float64(time.Millisecond)
	sink.frame(Frame{Type: FrameEnd, Engine: h.EngineUsed(), RowCount: &n, ElapsedMs: &elapsed})
}

// submitError maps a submission failure to its HTTP shape.
func submitError(tenant string, err error) (int, ErrorBody) {
	var ov *server.OverloadError
	switch {
	case errors.As(err, &ov):
		// A sub-millisecond backoff truncates to 0 ms, which omitempty
		// drops from the body and the header guard in httpError skips —
		// the client would see a 429 with no backoff at all and retry
		// immediately. Floor the wire estimate at 1 ms.
		ms := ov.RetryAfter.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		return http.StatusTooManyRequests, ErrorBody{
			Error: err.Error(), Code: CodeOverloaded,
			Tenant: ov.Tenant, Queued: ov.Queued,
			RetryAfterMs: ms,
		}
	case errors.Is(err, server.ErrClosed):
		return http.StatusServiceUnavailable, ErrorBody{Error: err.Error(), Code: CodeClosed, Tenant: tenant}
	default:
		return http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest, Tenant: tenant}
	}
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, ErrorBody{Error: "POST only", Code: CodeBadRequest})
		return
	}
	req, err := DecodePrepareRequest(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Code: CodeBadRequest})
		return
	}
	p, err := s.svc.Prepare(req.SQL)
	if err != nil {
		status, body := submitError("", err)
		httpError(w, status, body)
		return
	}
	resp := PrepareResponse{SQL: req.SQL, NumParams: p.Stmt().NumParams()}
	for _, t := range p.Stmt().ParamTypes() {
		resp.ParamTypes = append(resp.ParamTypes, t.Kind.String())
	}
	w.Header().Set("Content-Type", "application/json")
	raw, _ := json.Marshal(resp)
	w.Write(append(raw, '\n'))
}

// handleMetrics renders the service's counters — and, when a registry
// is attached, the per-engine latency histograms — in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("paradigms_queries_submitted_total", "Submissions assigned a query id.", st.Submitted)
	counter("paradigms_queries_served_total", "Successfully completed queries.", st.Served)
	counter("paradigms_queries_failed_total", "Queries that failed executing or validating.", st.Failed)
	counter("paradigms_queries_canceled_total", "Queries abandoned via context.", st.Canceled)
	counter("paradigms_queries_rejected_total", "Admission-queue overload rejections.", st.Rejected)
	counter("paradigms_queries_prepared_total", "Served queries that ran through the prepared-statement path.", st.PreparedServed)
	counter("paradigms_queries_streamed_total", "Served queries that streamed result batches.", st.StreamedServed)
	counter("paradigms_plan_cache_hits_total", "Prepare calls served from the plan cache.", st.PlanCacheHits)
	counter("paradigms_plan_cache_misses_total", "Prepare calls that parsed and planned.", st.PlanCacheMisses)
	counter("paradigms_plan_cache_evictions_total", "Plan cache LRU evictions.", st.PlanCacheEvictions)
	counter("paradigms_morsels_dispatched_total", "Morsel claims made by this service's queries.", uint64(st.MorselsDispatched))
	gauge("paradigms_queries_in_flight", "Queries currently executing.", int64(st.InFlight))
	gauge("paradigms_queries_queued", "Queries waiting for admission.", int64(st.Queued))
	avx512 := int64(0)
	if simd.AVX512() {
		avx512 = 1
	}
	gauge("paradigms_simd_avx512", "1 when the selection and key-membership kernels run in AVX-512 assembly (chosen at startup from the CPU), 0 when they run their Go loops.", avx512)
	engines := make([]string, 0, len(st.PerEngine))
	for e := range st.PerEngine {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	fmt.Fprintf(w, "# HELP paradigms_queries_engine_total Served queries by the engine that ran them.\n")
	fmt.Fprintf(w, "# TYPE paradigms_queries_engine_total counter\n")
	for _, e := range engines {
		fmt.Fprintf(w, "paradigms_queries_engine_total{engine=%q} %d\n", e, st.PerEngine[e])
	}
	if s.metrics != nil {
		s.metrics.WriteTo(w)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	raw, err := json.Marshal(s.svc.Stats())
	if err != nil {
		httpError(w, http.StatusInternalServerError, ErrorBody{Error: err.Error(), Code: CodeExec})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(raw, '\n'))
}

// ndjsonSink adapts an http.ResponseWriter to logical.RowSink: each
// batch becomes one rows frame, flushed immediately so rows reach the
// client while the scan is still running. Only rows frames flush: the
// once-per-query frames (cols, analyze, end, error) are written into
// the response buffer and leave with the next rows flush or when the
// handler returns, so a small result takes two socket writes, not one
// per frame. The executors serialize
// SetCols/PushRows; the terminal frame is written by the handler after
// Wait, so only the `wrote` flag needs the mutex (read from the handler
// goroutine on the failed-before-start path).
type ndjsonSink struct {
	w http.ResponseWriter
	// buf is the rows-frame encode buffer, taken from rowsBufs at the
	// first batch and kept until release.
	buf *[]byte

	mu    sync.Mutex
	wrote bool
	rows  int64
	err   error
}

// rowsBufs recycles rows-frame encode buffers across responses.
var rowsBufs = sync.Pool{New: func() any { return new([]byte) }}

// release returns the encode buffer; the handler calls it once the
// terminal frame is out.
func (s *ndjsonSink) release() {
	if s.buf != nil {
		rowsBufs.Put(s.buf)
		s.buf = nil
	}
}

func (s *ndjsonSink) started() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wrote
}

// rowCount is the rows streamed so far.
func (s *ndjsonSink) rowCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// write sends one encoded frame line carrying nrows result rows,
// flushing it down the wire when it carries rows.
func (s *ndjsonSink) write(line []byte, nrows int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if !s.wrote {
		s.w.Header().Set("Content-Type", "application/x-ndjson")
		s.wrote = true
	}
	if _, err := s.w.Write(line); err != nil {
		s.err = err
		return err
	}
	if nrows == 0 {
		return nil
	}
	s.rows += int64(nrows)
	if fl, ok := s.w.(http.Flusher); ok {
		fl.Flush()
	}
	return nil
}

// frame writes one of the once-per-query frames (cols, analyze, end,
// error) through encoding/json.
func (s *ndjsonSink) frame(f Frame) error {
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return s.write(append(raw, '\n'), 0)
}

// SetCols implements logical.RowSink.
func (s *ndjsonSink) SetCols(cols []logical.OutCol) error {
	return s.frame(Frame{Type: FrameCols, Cols: ColsOf(cols)})
}

// PushRows implements logical.RowSink: the rows-frame codec
// (rowsframe.go) encodes the batch into the sink's reused buffer.
func (s *ndjsonSink) PushRows(rows [][]int64) error {
	if s.buf == nil {
		s.buf = rowsBufs.Get().(*[]byte)
	}
	*s.buf = appendRowsFrame((*s.buf)[:0], rows)
	return s.write(*s.buf, len(rows))
}
