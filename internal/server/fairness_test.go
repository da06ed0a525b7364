package server

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"
)

// submitT submits a query for a tenant and fails the test on error.
func submitT(t *testing.T, s *Service, tenant, query string) *Handle {
	t.Helper()
	h, err := s.SubmitReq(context.Background(), Req{Tenant: tenant, Engine: "typer", Query: query})
	if err != nil {
		t.Fatalf("submit %s/%s: %v", tenant, query, err)
	}
	return h
}

// drain releases every started query in start order until all handles
// finish, then returns the exec-start order of query names.
func drain(t *testing.T, be *fakeExec, handles []*Handle) []string {
	t.Helper()
	for i := 0; i < len(handles); i++ {
		be.waitStarted(t, i+1)
		be.releaseOne(i)
	}
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	return append([]string(nil), be.startSeq...)
}

// TestDRRInterleavesTenants pins the admission order itself: with one
// execution slot and a heavy tenant's backlog already queued, a light
// tenant that shows up later is admitted every round — not after the
// backlog, as strict arrival order would. This is the deterministic
// core of the fairness story; the latency-level consequence is
// TestLightTenantLatencyBound.
func TestDRRInterleavesTenants(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 1, WorkerBudget: 1})
	defer s.Close()
	handles := []*Handle{submitT(t, s, "heavy", "h0")} // occupies the slot
	for _, q := range []string{"h1", "h2", "h3", "h4"} {
		handles = append(handles, submitT(t, s, "heavy", q))
	}
	for _, q := range []string{"l1", "l2"} {
		handles = append(handles, submitT(t, s, "light", q))
	}
	got := drain(t, be, handles)
	want := []string{"h0", "h1", "l1", "h2", "l2", "h3", "h4"}
	assertSeq(t, got, want)
}

// TestDRRWeights pins the deficit mechanics: a tenant with weight 2 is
// admitted twice per round.
func TestDRRWeights(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{
		Executor: be, MaxConcurrent: 1, WorkerBudget: 1,
		TenantWeights: map[string]int{"a": 2},
	})
	defer s.Close()
	handles := []*Handle{submitT(t, s, "a", "a0")}
	for _, q := range []string{"a1", "a2", "a3", "a4"} {
		handles = append(handles, submitT(t, s, "a", q))
	}
	for _, q := range []string{"b1", "b2"} {
		handles = append(handles, submitT(t, s, "b", q))
	}
	got := drain(t, be, handles)
	want := []string{"a0", "a1", "a2", "b1", "a3", "a4", "b2"}
	assertSeq(t, got, want)
}

// TestCapStepOver pins the scheduling consequence of per-tenant caps:
// a tenant at its running cap is stepped over, so a later arrival of
// another tenant admits into the spare slot immediately instead of
// waiting behind the capped queue head.
func TestCapStepOver(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{
		Executor: be, MaxConcurrent: 2, WorkerBudget: 2,
		TenantCaps: map[string]int{"heavy": 1},
	})
	defer s.Close()
	h0 := submitT(t, s, "heavy", "h0") // heavy now at its cap
	be.waitStarted(t, 1)
	h1 := submitT(t, s, "heavy", "h1") // queues: cap reached
	l1 := submitT(t, s, "light", "l1") // must NOT wait behind h1
	be.waitStarted(t, 2)
	be.mu.Lock()
	second := be.startSeq[1]
	be.mu.Unlock()
	if second != "l1" {
		t.Fatalf("second started query is %q, want l1 (stepped over capped heavy)", second)
	}
	for i := 0; i < 3; i++ {
		be.waitStarted(t, i+1)
		be.releaseOne(i)
	}
	for _, h := range []*Handle{h0, h1, l1} {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoStarvationUnderFlood: one tenant floods a deep backlog; two
// bystander tenants each submit a handful of queries. Round-robin
// admission guarantees every bystander query starts within a few rounds
// — no non-empty queue is skipped for more than one round — so none of
// them can land in the flooded tail.
func TestNoStarvationUnderFlood(t *testing.T) {
	be := &fakeExec{hold: true}
	s := New(Config{Executor: be, MaxConcurrent: 1, WorkerBudget: 1})
	defer s.Close()
	handles := []*Handle{submitT(t, s, "flood", "f0")}
	for i := 1; i <= 20; i++ {
		handles = append(handles, submitT(t, s, "flood", "f"))
	}
	for i := 0; i < 3; i++ {
		handles = append(handles, submitT(t, s, "b", "b"))
		handles = append(handles, submitT(t, s, "c", "c"))
	}
	got := drain(t, be, handles)
	var positions []int
	for i, q := range got {
		if q == "b" || q == "c" {
			positions = append(positions, i)
		}
	}
	if len(positions) != 6 {
		t.Fatalf("bystanders started %d times, want 6", len(positions))
	}
	sort.Ints(positions)
	// 3 rounds of (flood, b, c) admit every bystander by position 9.
	if last := positions[len(positions)-1]; last > 9 {
		t.Errorf("last bystander start at position %d of %d, want ≤9 (starved behind flood)", last, len(got))
	}
}

// sleepDelay gives each query class an exactly controlled service time
// — a stand-in for Q3-class scans vs Q6-class aggregates.
func sleepDelay(job Job) time.Duration {
	if job.Text == "heavy" {
		return 40 * time.Millisecond
	}
	return time.Millisecond
}

// TestLightTenantLatencyBound is the closed-loop fairness satellite: a
// heavy tenant floods 40ms queries from 4 clients while a light tenant
// runs 1ms queries from 2 clients. With a dedicated-by-cap slot the
// light tenant's p99 stays near its service time instead of queueing
// behind the flood (a single global queue inflates it past 30ms — see
// EXPERIMENTS.md). The bound is a service-time multiple (sleep-based
// exec), so the test is load-independent.
func TestLightTenantLatencyBound(t *testing.T) {
	s := New(Config{
		Executor: &fakeExec{delay: sleepDelay}, MaxConcurrent: 2, WorkerBudget: 2,
		TenantCaps: map[string]int{"heavy": 1},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 1200*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	loop := func(tenant string, n int) {
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					h, err := s.SubmitReq(ctx, Req{Tenant: tenant, Engine: "typer", Query: tenant})
					if err != nil {
						return
					}
					h.Wait(ctx)
				}
			}()
		}
	}
	loop("heavy", 4)
	loop("light", 2)
	wg.Wait()
	s.Close()
	st := s.Stats()
	light, heavy := st.Tenants["light"], st.Tenants["heavy"]

	if light.Served < 50 {
		t.Fatalf("light served only %d queries", light.Served)
	}
	if heavy.Served == 0 {
		t.Errorf("heavy tenant starved (0 served)")
	}
	// Light holds a dedicated slot: two 1ms clients share it, so p99
	// stays within a few service times even while heavy floods.
	if limit := 15 * time.Millisecond; light.P99 > limit {
		t.Errorf("light p99 %v, want ≤%v", light.P99, limit)
	}
}

// assertSeq compares two string sequences elementwise.
func assertSeq(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("start order %v, want %v (diverges at %d)", got, want, i)
		}
	}
}
