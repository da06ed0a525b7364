package server

import (
	"context"
	"errors"
	"testing"
)

func newPrepService(fe *fakeExec) *Service {
	fe.counters = Counters{PlanCacheHits: 7, PlanCacheMisses: 3, PlanCacheEvictions: 1, ExchangeScattered: 5}
	return New(Config{Executor: fe, WorkerBudget: 2})
}

// TestPreparedLifecycle: Prepare → DoPrepared reaches the executor as a
// job carrying the statement and the bound arguments; "auto" resolves
// and the handle and stats report the engine that actually ran.
func TestPreparedLifecycle(t *testing.T) {
	fe := &fakeExec{}
	s := newPrepService(fe)
	defer s.Close()

	const text = "select x from t where y < ?"
	p, err := s.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Query() != text {
		t.Fatalf("Query() = %q", p.Query())
	}

	hd, err := s.SubmitPrepared(context.Background(), "auto", p, "42")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hd.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	job := fe.jobs[0]
	if job.Stmt != p.Stmt() || job.Stmt.(fakeStmt).text != text || job.Text != text ||
		len(job.Args) != 1 || job.Args[0] != "42" || job.Engine != "auto" || job.Workers != 2 || job.Sink != nil {
		t.Fatalf("executor saw job %+v", job)
	}
	if !hd.Prepared() || hd.Engine() != "auto" || hd.EngineUsed() != "typer" {
		t.Fatalf("handle: prepared=%v engine=%q used=%q", hd.Prepared(), hd.Engine(), hd.EngineUsed())
	}
	if got := hd.Args(); len(got) != 1 || got[0] != "42" {
		t.Fatalf("Args() = %v", got)
	}

	if _, err := s.DoPrepared(context.Background(), "tectorwise", p, "7"); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Served != 2 || st.PreparedServed != 2 {
		t.Fatalf("served=%d prepared=%d, want 2/2", st.Served, st.PreparedServed)
	}
	if st.PerEngine["typer"] != 1 || st.PerEngine["tectorwise"] != 1 {
		t.Fatalf("per-engine attribution wrong: %v", st.PerEngine)
	}
	if st.Counters != fe.counters {
		t.Fatalf("executor counters not surfaced: %+v", st.Counters)
	}
	if fe.prepCalls != 1 || len(fe.jobs) != 2 {
		t.Fatalf("executor calls: prepare=%d run=%d", fe.prepCalls, len(fe.jobs))
	}
}

// TestPreparedErrors: prepare failures surface, and a closed service
// prepares nothing.
func TestPreparedErrors(t *testing.T) {
	s := newPrepService(&fakeExec{})
	if _, err := s.Prepare("select bogus"); err == nil {
		t.Fatal("prepare error swallowed")
	}
	s.Close()
	if _, err := s.Prepare("select x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestPreparedAdmissionShared: prepared executions respect the same
// MaxConcurrent bound and FIFO queue as ordinary submissions.
func TestPreparedAdmissionShared(t *testing.T) {
	fe := &fakeExec{hold: true}
	s := New(Config{Executor: fe, WorkerBudget: 2, MaxConcurrent: 1})

	h1, err := s.Submit(context.Background(), "typer", "Q1")
	if err != nil {
		t.Fatal(err)
	}
	fe.waitStarted(t, 1) // Q1 holds the only slot

	p, _ := s.Prepare("select 1 from t where a = ?")
	h2, err := s.SubmitPrepared(context.Background(), "typer", p, "1")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.InFlight != 1 || st.Queued != 1 {
		t.Fatalf("prepared execution bypassed admission control: in flight %d, queued %d", st.InFlight, st.Queued)
	}

	fe.releaseOne(0)
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	fe.waitStarted(t, 2)
	fe.releaseOne(1)
	if _, err := h2.Wait(context.Background()); err != nil {
		t.Fatalf("prepared after release: %v", err)
	}
	s.Close()
	if st := s.Stats(); st.Served != 2 || st.PreparedServed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
