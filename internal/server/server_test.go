package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paradigms/internal/logical"
	"paradigms/internal/obs"
)

// fakeExec is the tests' one Executor. Run records each job in start
// order and returns at once — or, with hold set, parks the job until
// releaseOne(i) or ctx, and with delay set, takes delay(job) to run.
// "auto" reports typer, standing in for the engine the real executor
// reports; Prepare
// wraps the text and rejects texts containing "bogus".
type fakeExec struct {
	hold     bool
	delay    func(Job) time.Duration
	counters Counters

	mu        sync.Mutex
	releases  []chan struct{}
	jobs      []Job    // in execution-start order
	startSeq  []string // jobs[i].Text
	prepCalls int
	cur, max  atomic.Int32
}

// fakeStmt is fakeExec's statement: only its text is ever looked at.
type fakeStmt struct {
	Stmt
	text string
}

func (f *fakeExec) Prepare(text string) (Stmt, error) {
	f.mu.Lock()
	f.prepCalls++
	f.mu.Unlock()
	if strings.Contains(text, "bogus") {
		return nil, errors.New("prep: bad statement")
	}
	return fakeStmt{text: text}, nil
}

func (f *fakeExec) Counters() Counters { return f.counters }

func (f *fakeExec) Run(ctx context.Context, job Job) (Outcome, error) {
	c := f.cur.Add(1)
	for {
		m := f.max.Load()
		if c <= m || f.max.CompareAndSwap(m, c) {
			break
		}
	}
	defer f.cur.Add(-1)

	f.mu.Lock()
	release := make(chan struct{})
	if !f.hold {
		close(release)
	}
	f.releases = append(f.releases, release)
	f.jobs = append(f.jobs, job)
	f.startSeq = append(f.startSeq, job.Text)
	f.mu.Unlock()

	out := Outcome{Used: job.Engine}
	if job.Engine == "auto" {
		out.Used = "typer"
	}
	var timer <-chan time.Time
	if f.delay != nil {
		timer = time.After(f.delay(job))
		release = nil // the delay alone decides
	}
	select {
	case <-release:
	case <-timer:
	case <-ctx.Done():
		return out, ctx.Err()
	}
	if job.Sink == nil {
		out.Result = &logical.Result{}
	}
	return out, nil
}

// releaseOne unparks the i-th started query.
func (b *fakeExec) releaseOne(i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	close(b.releases[i])
}

// waitStarted polls until n queries have reached the engine.
func (b *fakeExec) waitStarted(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		started := len(b.startSeq)
		b.mu.Unlock()
		if started >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d queries started, want %d", started, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionBound(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 2, WorkerBudget: 4})

	var handles []*Handle
	for i := 0; i < 6; i++ {
		h, err := s.Submit(context.Background(), "typer", fmt.Sprintf("Q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	be.waitStarted(t, 2)
	if got := s.Stats(); got.InFlight != 2 || got.Queued != 4 {
		t.Errorf("in flight %d queued %d, want 2 and 4", got.InFlight, got.Queued)
	}
	for i := 0; i < 6; i++ {
		be.waitStarted(t, i+1)
		be.releaseOne(i)
	}
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if m := be.max.Load(); m > 2 {
		t.Errorf("observed %d concurrent queries, bound is 2", m)
	}
	st := s.Stats()
	if st.Served != 6 || st.Failed != 0 || st.Canceled != 0 {
		t.Errorf("stats %+v, want 6 served", st)
	}
	if st.QueuedHighWater != 4 {
		t.Errorf("queue high water %d, want 4", st.QueuedHighWater)
	}
}

// TestFIFO: admission order beyond the bound is exactly Submit order.
func TestFIFO(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 1, WorkerBudget: 1})

	names := []string{"A", "B", "C", "D", "E"}
	for _, q := range names {
		if _, err := s.Submit(context.Background(), "typer", q); err != nil {
			t.Fatal(err)
		}
	}
	for i := range names {
		be.waitStarted(t, i+1)
		be.releaseOne(i)
	}
	s.Close()
	be.mu.Lock()
	defer be.mu.Unlock()
	for i, q := range names {
		if be.startSeq[i] != q {
			t.Fatalf("execution order %v, want FIFO %v", be.startSeq, names)
		}
	}
}

// TestCancelQueued: canceling a queued query removes it without it ever
// reaching the engine, and later arrivals still get the slot.
func TestCancelQueued(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 1, WorkerBudget: 1})

	blocker, err := s.Submit(context.Background(), "typer", "A")
	if err != nil {
		t.Fatal(err)
	}
	be.waitStarted(t, 1)
	victim, err := s.Submit(context.Background(), "typer", "B")
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Submit(context.Background(), "typer", "C")
	if err != nil {
		t.Fatal(err)
	}

	victim.Cancel()
	if _, err := victim.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim err = %v, want context.Canceled", err)
	}
	// The dead waiter must leave the queue immediately, not linger until
	// the running query releases its slot.
	if q := s.Stats().Queued; q != 1 {
		t.Errorf("queued = %d after canceling a queued query, want 1", q)
	}
	be.releaseOne(0)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	be.waitStarted(t, 2) // C, not B
	be.releaseOne(1)
	if _, err := after.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	be.mu.Lock()
	seq := append([]string(nil), be.startSeq...)
	be.mu.Unlock()
	if len(seq) != 2 || seq[1] != "C" {
		t.Errorf("execution sequence %v, want [A C]", seq)
	}
	st := s.Stats()
	if st.Served != 2 || st.Canceled != 1 {
		t.Errorf("stats %+v, want 2 served 1 canceled", st)
	}
}

// TestCancelRunning: canceling a running query propagates to the engine's
// context and the handle reports the cancellation.
func TestCancelRunning(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 1, WorkerBudget: 1})
	h, err := s.Submit(context.Background(), "typer", "A")
	if err != nil {
		t.Fatal(err)
	}
	be.waitStarted(t, 1)
	h.Cancel()
	if _, err := h.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOverload: a bounded queue rejects fast once full.
func TestOverload(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 1, MaxQueued: 2, WorkerBudget: 1})
	for i := 0; i < 3; i++ { // 1 running + 2 queued
		if _, err := s.Submit(context.Background(), "typer", "Q"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(context.Background(), "typer", "Q"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	be.waitStarted(t, 1)
	for i := 0; i < 3; i++ {
		be.waitStarted(t, i+1)
		be.releaseOne(i)
	}
	s.Close()
}

// TestClose: Close rejects new work and drains queued + running queries.
func TestClose(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 1, WorkerBudget: 1})
	h1, _ := s.Submit(context.Background(), "typer", "A")
	h2, _ := s.Submit(context.Background(), "typer", "B")
	be.waitStarted(t, 1)
	go func() {
		be.releaseOne(0)
		be.waitStarted(t, 2)
		be.releaseOne(1)
	}()
	s.Close()
	for _, h := range []*Handle{h1, h2} {
		select {
		case <-h.Done():
		default:
			t.Error("Close returned with a query still in flight")
		}
	}
	if _, err := s.Submit(context.Background(), "typer", "C"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestWorkerShare: a lone query gets the whole budget; under concurrency
// the budget is divided, never below one worker.
func TestWorkerShare(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 16, WorkerBudget: 8})
	var handles []*Handle
	for i := 0; i < 16; i++ {
		h, err := s.Submit(context.Background(), "typer", "Q")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	be.waitStarted(t, 16)
	for i := range handles {
		be.releaseOne(i)
	}
	s.Close()
	if w := handles[0].Workers(); w != 8 {
		t.Errorf("first (lone) query got %d workers, want the full budget 8", w)
	}
	for i, h := range handles {
		if w := h.Workers(); w < 1 {
			t.Errorf("query %d got %d workers, want >= 1", i, w)
		}
	}
	// With 16 running against a budget of 8, late admissions degrade to
	// one worker.
	if w := handles[15].Workers(); w != 1 {
		t.Errorf("16th concurrent query got %d workers, want 1", w)
	}
}

// TestStatsQuantiles: latency quantiles are ordered and populated.
func TestStatsQuantiles(t *testing.T) {
	s := New(Config{Executor: &fakeExec{}})
	for i := 0; i < 100; i++ {
		if _, err := s.Do(context.Background(), "typer", "Q"); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Served != 100 {
		t.Fatalf("served %d, want 100", st.Served)
	}
	if st.P50 > st.P95 || st.P95 > st.P99 || st.P99 > st.Max {
		t.Errorf("quantiles out of order: %v %v %v %v", st.P50, st.P95, st.P99, st.Max)
	}
	if st.PerEngine["typer"] != 100 {
		t.Errorf("per-engine %v, want typer=100", st.PerEngine)
	}
}

// nopSink is a RowSink that drops what it is given.
type nopSink struct{}

func (nopSink) SetCols([]logical.OutCol) error { return nil }
func (nopSink) PushRows([][]int64) error       { return nil }

// TestOutcomeReachesHandleAndObsEnd: a materialized query's Wait value
// is its *logical.Result and a streamed one's is an untyped nil (callers
// assert the value's type), and ObsEnd sees how long a queued query
// waited for admission.
func TestOutcomeReachesHandleAndObsEnd(t *testing.T) {
	fe := &fakeExec{hold: true}
	var mu sync.Mutex
	waits := map[string]time.Duration{}
	s := New(Config{
		Executor: fe, MaxConcurrent: 1, WorkerBudget: 1,
		ObsBegin: obs.NewCollector,
		ObsEnd: func(_ *obs.Collector, info QueryInfo) {
			mu.Lock()
			waits[info.Query] = info.QueueWait
			mu.Unlock()
		},
	})
	first, _ := s.Submit(context.Background(), "typer", "first")
	fe.waitStarted(t, 1)
	queued, _ := s.SubmitReq(context.Background(), Req{Engine: "typer", Query: "queued", Sink: nopSink{}})
	time.Sleep(5 * time.Millisecond) // "queued" waits at least this long behind "first"
	fe.releaseOne(0)
	fe.waitStarted(t, 2)
	fe.releaseOne(1)

	res, err := first.Wait(context.Background())
	if r, ok := res.(*logical.Result); err != nil || !ok || r == nil {
		t.Fatalf("materialized Wait = %#v, %v; want a *logical.Result", res, err)
	}
	if res, err := queued.Wait(context.Background()); err != nil || res != nil {
		t.Fatalf("streamed Wait = %#v, %v; want untyped nil", res, err)
	}
	s.Close()
	mu.Lock()
	defer mu.Unlock()
	if w := waits["queued"]; w < 5*time.Millisecond || w != queued.QueueWait() {
		t.Errorf("ObsEnd saw queue wait %v for the queued query (handle says %v), want ≥ 5ms", w, queued.QueueWait())
	}
	if w := waits["first"]; w > waits["queued"] {
		t.Errorf("the immediately admitted query waited %v, longer than the queued one", w)
	}
}
