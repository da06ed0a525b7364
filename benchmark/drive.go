package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"paradigms/internal/logical"
	"paradigms/internal/obs"
	"paradigms/internal/proto/client"
	"paradigms/internal/server"
)

// sample is one request as its client saw it.
type sample struct {
	at       time.Duration // completion, since the window opened
	lat      time.Duration // request sent -> last row consumed
	server   time.Duration // the server's own figure: end-frame elapsed_ms, or Handle.Latency in process
	first    time.Duration // request sent -> first row
	rows     int64
	engine   string // as requested
	used     string // as executed (hybrid carries its per-pipeline assignment)
	prepared bool
	failed   bool
}

// loopClient is one closed-loop client: one tenant, one keep-alive
// connection, its next request sent only after the last row of the
// previous response.
type loopClient struct {
	id      int
	tenant  string
	cl      *client.Client
	wire    *wireCounter
	next    int // index of the next request in this client's sequence
	order   [][]int
	samples []sample
}

// orderBlocks is how many per-item engine orders a client draws before
// it reuses them.
const orderBlocks = 256

// wireCounter counts response bytes and NDJSON frames of one client's
// connection (traced runs only; the timed window uses a bare transport).
type wireCounter struct {
	bytes, frames atomic.Int64
}

type countingTransport struct {
	base http.RoundTripper
	c    *wireCounter
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, c: t.c}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	c *wireCounter
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.bytes.Add(int64(n))
	b.c.frames.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

// newClients builds the closed-loop fleet. Each client owns its
// http.Client for the whole run, so connections stay alive across
// warm-up and window.
func (e *env) newClients(count bool) []*loopClient {
	out := make([]*loopClient, e.cfg.clients)
	for i := range out {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		c := e.newLoopClient(i)
		c.cl = client.New(e.base, c.tenant)
		c.cl.HTTP = &http.Client{Transport: tr}
		if count {
			c.cl.HTTP.Transport = countingTransport{base: tr, c: c.wire}
		}
		out[i] = c
	}
	return out
}

// newLoopClient draws the client's engine orders from the run's seed.
func (e *env) newLoopClient(id int) *loopClient {
	c := &loopClient{id: id, tenant: fmt.Sprintf("c%d", id), wire: &wireCounter{}, order: make([][]int, orderBlocks)}
	r := rand.New(rand.NewSource(e.cfg.seed<<8 + int64(id)))
	for b := range c.order {
		c.order[b] = r.Perm(len(e.cfg.workload.engines))
	}
	return c
}

func closeClients(cs []*loopClient) {
	for _, c := range cs {
		c.cl.HTTP.CloseIdleConnections()
	}
}

// pick maps request i of a client to its engine, item and send path:
// each item is visited once per engine before the client moves on, and
// clients start at evenly spaced offsets of the shared schedule. The
// order of the engines within an item is a seeded draw per client: with
// a fixed rotation the clients fall into step, and whether two
// bandwidth-bound scans overlap or a scan overlaps a compute-bound one
// is then decided once per run, which makes per-engine latency bimodal
// from run to run.
func (e *env) pick(c *loopClient, i int) (engine string, it *item, prepared bool) {
	w := e.cfg.workload
	n := len(w.engines)
	off := c.id * len(e.items) / e.cfg.clients
	it = e.items[(off+i/n)%len(e.items)]
	prepared = w.mode == sendPrepared || (w.mode == sendAlternate && i%2 == 0)
	return w.engines[c.order[(i/n)%orderBlocks][i%n]], it, prepared
}

// request sends one request and consumes its whole result. analyze asks
// the server for its per-pipeline telemetry as well (traced replay).
func (e *env) request(ctx context.Context, c *loopClient, i int, analyze bool) sample {
	engine, it, prepared := e.pick(c, i)
	s := sample{engine: engine, prepared: prepared}
	start := time.Now()
	var err error
	if e.cfg.workload.mode == sendInProcess {
		err = e.inProcess(ctx, c, it, analyze, &s)
	} else {
		err = e.overWire(ctx, c, it, analyze, &s)
	}
	s.lat = time.Since(start)
	if err == nil && s.rows != it.rows {
		err = fmt.Errorf("%s on %s returned %d rows, want %d", it.tmpl.name, engine, s.rows, it.rows)
	}
	if err != nil {
		s.failed = true
		var retry *client.RetryError
		if errors.As(err, &retry) {
			time.Sleep(retry.RetryAfter)
		} else if ctx.Err() == nil {
			fmt.Fprintf(logw, "benchmark: client %d: %v\n", c.id, err)
		}
	}
	return s
}

func (e *env) overWire(ctx context.Context, c *loopClient, it *item, analyze bool, s *sample) error {
	start := time.Now()
	var rows *client.Rows
	var err error
	switch {
	case s.prepared:
		rows, err = c.cl.QueryPrepared(ctx, s.engine, it.tmpl.text, it.args...)
	case analyze:
		rows, err = c.cl.QueryAnalyze(ctx, s.engine, it.adhoc)
	default:
		rows, err = c.cl.Query(ctx, s.engine, it.adhoc)
	}
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		if s.rows == 0 {
			s.first = time.Since(start)
		}
		s.rows++
	}
	s.server, s.used = rows.Elapsed(), rows.Engine()
	return rows.Err()
}

func (e *env) inProcess(ctx context.Context, c *loopClient, it *item, analyze bool, s *sample) error {
	req := server.Req{Tenant: c.tenant, Engine: s.engine, Query: it.adhoc}
	if analyze {
		req.Collector = obs.NewCollector()
	}
	h, err := e.svc.SubmitReq(ctx, req)
	if err != nil {
		return err
	}
	res, err := h.Wait(ctx)
	if err != nil {
		return err
	}
	s.rows = int64(len(res.(*logical.Result).Rows))
	s.server, s.used = h.Latency(), h.EngineUsed()
	s.first = s.server
	return nil
}

// drive runs every client closed-loop for d and returns when each has
// finished the request it had in flight at the deadline.
func (e *env) drive(clients []*loopClient, d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d+60*time.Second)
	defer cancel()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *loopClient) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				s := e.request(ctx, c, c.next, false)
				s.at = time.Since(start)
				c.samples = append(c.samples, s)
				c.next++
			}
		}(c)
	}
	wg.Wait()
}

// window is the timed part of a run: the samples of every client and the
// wall time from the window opening to the last response.
type window struct {
	samples []sample
	elapsed time.Duration
}

// timedWindow warms the system up, discards that, forces a GC so no
// run starts with the previous phase's garbage, and measures for d.
func (e *env) timedWindow(clients []*loopClient, d time.Duration, beforeWindow func()) window {
	e.drive(clients, e.cfg.warmup)
	for _, c := range clients {
		c.samples = c.samples[:0]
	}
	if beforeWindow != nil {
		beforeWindow()
	}
	start := time.Now()
	e.drive(clients, d)
	w := window{elapsed: time.Since(start)}
	for _, c := range clients {
		w.samples = append(w.samples, c.samples...)
	}
	return w
}

func (w window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// latencies returns the client-observed latency in ms of the successful
// samples keep accepts.
func (w window) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if !s.failed && (keep == nil || keep(s)) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func byEngine(engine string) func(sample) bool {
	return func(s sample) bool { return s.engine == engine }
}
