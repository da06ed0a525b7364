package server

import (
	"fmt"
	"sync/atomic"
	"time"
)

// DefaultTenant is the tenant requests are attributed to when the
// submission does not name one (the single-tenant legacy API).
const DefaultTenant = "default"

// tenantLatWindow is the per-tenant latency ring size (smaller than the
// global window; per-tenant p99 over the last 1k queries is plenty for
// fairness accounting).
const tenantLatWindow = 1 << 10

// defaultYieldPause is the bounded per-morsel pause injected into
// queries of a tenant running over its fair worker share while other
// tenants have work. A morsel is ~100k tuples (hundreds of µs of scan
// work), so a pause of this order roughly halves an over-share scan's
// CPU take without parking workers long enough to matter at barriers.
const defaultYieldPause = 500 * time.Microsecond

// defaultExecEstimate seeds the retry-after estimator before any query
// of the tenant (or service) has completed.
const defaultExecEstimate = 50 * time.Millisecond

// OverloadError is the typed rejection of queue-depth backpressure: the
// tenant's (or the service's) admission queue is full. It carries the
// service's estimate of when retrying is worthwhile — queue depth times
// the tenant's recent execution time over the effective concurrency.
// errors.Is(err, ErrOverloaded) matches it, so existing callers keep
// working; clients that type-assert get the backoff hint.
type OverloadError struct {
	Tenant     string
	Queued     int           // tenant queue depth at rejection
	RetryAfter time.Duration // suggested backoff before retrying
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: tenant %q admission queue full (%d queued, retry after %v)",
		e.Tenant, e.Queued, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for typed rejections.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// tenant is the scheduler's per-tenant state: its FIFO queue, DRR
// deficit, occupancy, throttle, and stats. All fields except throttle
// are guarded by the service mutex; throttle is read lock-free by the
// per-morsel yield hook of every running query of the tenant.
type tenant struct {
	name   string
	weight int // DRR quantum: admissions per round relative to other tenants

	queue   []*waiter
	deficit int  // DRR deficit counter (admissions owed this round)
	inRing  bool // member of the active ring

	running int // queries of this tenant currently executing
	granted int // morsel workers granted to those queries

	// throttle is the per-morsel pause (ns) the fairness controller
	// currently imposes on this tenant's queries (0 = run free).
	throttle atomic.Int64

	// Stats.
	served, failed, canceled, rejected uint64
	streamed                           uint64
	lat                                [tenantLatWindow]time.Duration
	nLat                               int
	execEWMA                           time.Duration // smoothed execution time, for retry-after
}

// record adds one served-query latency to the tenant's ring.
func (t *tenant) record(d time.Duration) {
	t.lat[t.nLat%tenantLatWindow] = d
	t.nLat++
}

// observeExec feeds one execution duration into the tenant's EWMA.
func (t *tenant) observeExec(d time.Duration) {
	if t.execEWMA == 0 {
		t.execEWMA = d
		return
	}
	t.execEWMA = (t.execEWMA*7 + d) / 8
}

// pruneCanceled drops dead waiters from the head of the tenant queue.
// Caller holds the service mutex and owns the global queued counter.
func (s *Service) pruneCanceled(t *tenant) {
	for len(t.queue) > 0 && t.queue[0].canceled {
		t.queue = t.queue[1:]
		s.nQueued--
	}
}

// tenantOf returns (creating on first use) the tenant record of a name.
// Caller holds the service mutex.
func (s *Service) tenantOf(name string) *tenant {
	if name == "" {
		name = DefaultTenant
	}
	t, ok := s.tenants[name]
	if !ok {
		w := 1
		if s.cfg.TenantWeights != nil && s.cfg.TenantWeights[name] > 0 {
			w = s.cfg.TenantWeights[name]
		}
		t = &tenant{name: name, weight: w}
		s.tenants[name] = t
	}
	return t
}

// tenantCap is one tenant's running-query bound: its Config.TenantCaps
// entry, falling back to MaxPerTenant, falling back to MaxConcurrent
// (no extra bound).
func (s *Service) tenantCap(t *tenant) int {
	if c, ok := s.cfg.TenantCaps[t.name]; ok && c > 0 {
		return c
	}
	if s.cfg.MaxPerTenant > 0 {
		return s.cfg.MaxPerTenant
	}
	return s.cfg.MaxConcurrent
}

// enqueue appends a waiter to its tenant's queue and maintains the
// active ring. Caller holds the service mutex.
func (s *Service) enqueue(w *waiter) {
	s.nQueued++
	if s.nQueued > s.st.queuedHighWater {
		s.st.queuedHighWater = s.nQueued
	}
	t := w.t
	t.queue = append(t.queue, w)
	if !t.inRing {
		t.inRing = true
		s.ring = append(s.ring, t)
	}
}

// unqueue removes a canceled waiter from its queue immediately (so dead
// waiters stop counting against queue bounds and Stats.Queued). Caller
// holds the service mutex; the waiter's canceled flag is already set.
func (s *Service) unqueue(w *waiter) {
	q := w.t.queue
	for i, qw := range q {
		if qw == w {
			w.t.queue = append(q[:i], q[i+1:]...)
			s.nQueued--
			return
		}
	}
}

// nextWaiter picks the next admission by deficit round robin over the
// per-tenant queues: each eligible visit refills a tenant's deficit to
// its weight, each admission spends one unit, and the round pointer
// advances when the deficit is spent — so a tenant with weight k is
// admitted k times per round regardless of how deep any other tenant's
// backlog is, and no non-empty queue is ever skipped for more than one
// round (no starvation). Tenants at their running cap are stepped over
// without losing their place. It returns nil when nothing is eligible
// (empty queues, or every queued tenant is at its running cap). Caller
// holds the service mutex.
func (s *Service) nextWaiter() *waiter {
	scanned := 0
	for scanned < len(s.ring) {
		if s.ringIdx >= len(s.ring) {
			s.ringIdx = 0
		}
		t := s.ring[s.ringIdx]
		s.pruneCanceled(t)
		if len(t.queue) == 0 {
			s.dropFromRing(s.ringIdx)
			continue // ring shrank; ringIdx already points at the next tenant
		}
		if t.running >= s.tenantCap(t) {
			s.ringIdx++
			scanned++
			continue
		}
		if t.deficit <= 0 {
			t.deficit = t.weight
		}
		w := t.queue[0]
		t.queue = t.queue[1:]
		s.nQueued--
		t.deficit--
		if len(t.queue) == 0 {
			s.dropFromRing(s.ringIdx)
		} else if t.deficit <= 0 {
			s.ringIdx++
		}
		return w
	}
	return nil
}

// dropFromRing removes the tenant at ring position i and resets its
// round state. Caller holds the service mutex.
func (s *Service) dropFromRing(i int) {
	t := s.ring[i]
	t.inRing = false
	t.deficit = 0
	s.ring = append(s.ring[:i], s.ring[i+1:]...)
	if s.ringIdx > i {
		s.ringIdx--
	}
}

// dispatch admits waiters while global capacity remains, then refreshes
// the fairness throttles. Called after every enqueue and every release.
// Caller holds the service mutex.
func (s *Service) dispatch() {
	for s.running < s.cfg.MaxConcurrent {
		w := s.nextWaiter()
		if w == nil {
			break
		}
		s.running++
		w.t.running++
		share := s.shareFor(w.t)
		w.share = share
		w.t.granted += share
		w.grant <- share
	}
	s.recomputeThrottles()
}

// totalActiveWeight sums the weights of tenants with work (running or
// queued). Caller holds the service mutex.
func (s *Service) totalActiveWeight() int {
	tw := 0
	for _, t := range s.tenants {
		if t.running > 0 || len(t.queue) > 0 {
			tw += t.weight
		}
	}
	return tw
}

// shareFor computes a newly admitted query's worker share for its
// tenant: the global equal split (Service.share), additionally capped
// by the tenant's weight-proportional slice of the budget divided
// across its own running queries. With one active tenant the cap is the
// whole budget and the policy degenerates to the legacy split; with
// several, a flooding tenant's queries cannot grab the workers a
// later-arriving tenant's solo query would have gotten — worker-share
// fairness to complement DRR's admission fairness. Caller holds s.mu;
// t.running already counts the query being admitted.
func (s *Service) shareFor(t *tenant) int {
	fair := s.cfg.WorkerBudget
	if tw := s.totalActiveWeight(); tw > t.weight {
		fair = max(1, s.cfg.WorkerBudget*t.weight/tw)
	}
	per := max(1, fair/max(1, t.running))
	w := max(1, min(s.cfg.WorkerBudget-s.granted, min(per, s.cfg.WorkerBudget/max(1, s.running))))
	s.granted += w
	return w
}

// throttleRatio is how much longer (weight-normalized, smoothed) a
// tenant's queries must run than the lightest active tenant's before the
// fairness controller starts pausing its morsel loops. Well above noise
// (EWMA jitter under CPU contention is ~2x), well below the
// short-vs-long gap the controller exists for (OLAP scans vs point-ish
// aggregates differ by 50x+).
const throttleRatio = 8

// recomputeThrottles is the morsel-level fairness controller: when more
// than one tenant is active (running or queued), tenants whose
// weight-normalized smoothed execution time is far above the lightest
// active tenant's get a bounded per-morsel pause injected into their
// queries' dispatch loops (exec.WithYield). Each pause cedes the CPU to
// the short queries at the engines' natural preemption points without
// parking workers mid-pipeline, so a long scan admitted when the service
// was idle stops starving short queries the moment another tenant shows
// up — and resumes at full speed the moment it is alone again. Exec
// time, not worker grants, is the signal: on a small machine every
// query holds the same one-worker share, yet a 400ms scan and a 2ms
// aggregate are nothing alike as CPU hogs. Caller holds the service
// mutex.
func (s *Service) recomputeThrottles() {
	active := 0
	for _, t := range s.tenants {
		if t.running > 0 || len(t.queue) > 0 {
			active++
		}
	}
	if active <= 1 {
		// Solo: run free.
		for _, t := range s.tenants {
			t.throttle.Store(0)
		}
		return
	}
	// Weight-normalized cost of the lightest active tenant with history;
	// tenants without history (EWMA 0) are unknown and never throttled.
	var lightest time.Duration
	for _, t := range s.tenants {
		if (t.running > 0 || len(t.queue) > 0) && t.execEWMA > 0 {
			if norm := t.execEWMA / time.Duration(t.weight); lightest == 0 || norm < lightest {
				lightest = norm
			}
		}
	}
	for _, t := range s.tenants {
		over := lightest > 0 && t.execEWMA/time.Duration(t.weight) > throttleRatio*lightest
		if t.running > 0 && over {
			t.throttle.Store(int64(s.yieldPause))
		} else {
			t.throttle.Store(0)
		}
	}
}

// retryAfter estimates how long a rejected submission should back off:
// the queue-plus-running backlog divided by the effective concurrency,
// times the tenant's (falling back to the service's) smoothed execution
// time. Deterministic given scheduler state, clamped to [1ms, 10s].
// Caller holds the service mutex.
func (s *Service) retryAfter(t *tenant) time.Duration {
	avg := t.execEWMA
	if avg == 0 {
		avg = s.execEWMA
	}
	if avg == 0 {
		avg = defaultExecEstimate
	}
	slots := s.cfg.MaxConcurrent
	if c := s.tenantCap(t); c < slots {
		slots = c
	}
	if slots < 1 {
		slots = 1
	}
	backlog := s.nQueued + s.running
	est := avg * time.Duration(backlog/slots+1)
	if est < time.Millisecond {
		est = time.Millisecond
	}
	if est > 10*time.Second {
		est = 10 * time.Second
	}
	return est
}
