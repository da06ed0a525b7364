package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// latencyWindow is how many recent per-query latencies the service keeps
// for quantile estimation. A power-of-two ring large enough that p99 of
// any realistic reporting interval is exact, small enough to be free.
const latencyWindow = 1 << 13

// statsAcc accumulates counters under the service mutex.
type statsAcc struct {
	served, failed, canceled, rejected uint64
	preparedServed                     uint64
	streamedServed                     uint64
	perEngine                          map[string]uint64
	queuedHighWater                    int

	lat  [latencyWindow]time.Duration // ring of recent latencies
	nLat int                          // total recorded (ring wraps)
}

// record adds one served-query latency.
func (a *statsAcc) record(d time.Duration) {
	a.lat[a.nLat%latencyWindow] = d
	a.nLat++
}

// TenantStats is one tenant's slice of the service aggregates: outcome
// counters, instantaneous occupancy, and submit-to-finish latency
// quantiles over the tenant's most recent tenantLatWindow queries —
// the per-tenant p50/p99 the fairness scheduler is judged by.
type TenantStats struct {
	Served, Failed, Canceled, Rejected uint64
	Streamed                           uint64
	Running, Queued                    int
	Weight                             int
	P50, P95, P99, Max                 time.Duration
}

// snapshot renders the tenant's counters. Caller holds the service
// mutex.
func (t *tenant) snapshot() TenantStats {
	ts := TenantStats{
		Served: t.served, Failed: t.failed, Canceled: t.canceled, Rejected: t.rejected,
		Streamed: t.streamed,
		Running:  t.running, Queued: len(t.queue), Weight: t.weight,
	}
	n := min(t.nLat, tenantLatWindow)
	if n > 0 {
		s := make([]time.Duration, n)
		copy(s, t.lat[:n])
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		ts.P50 = s[n/2]
		ts.P95 = s[n*95/100]
		ts.P99 = s[n*99/100]
		ts.Max = s[n-1]
	}
	return ts
}

// Stats is a point-in-time snapshot of service aggregates.
type Stats struct {
	// Submitted counts every submission that was assigned an id (and
	// therefore ends in exactly one of Served/Failed/Canceled);
	// rejections fail before an id is assigned and are counted only in
	// Rejected. The hammer tests reconcile these exactly.
	Submitted uint64
	// Served counts successfully completed queries; Failed counts
	// execution errors; Canceled counts queries abandoned via context;
	// Rejected counts ErrOverloaded fast-fails.
	Served, Failed, Canceled, Rejected uint64
	// PreparedServed counts the subset of Served that executed through
	// the prepared-statement path (no per-execution parse or plan).
	PreparedServed uint64
	// StreamedServed counts the subset of Served that streamed result
	// batches to a sink instead of materializing.
	StreamedServed uint64
	// Tenants breaks the counters down per tenant.
	Tenants map[string]TenantStats
	// PerEngine breaks Served down by the engine that actually ran each
	// query ("auto" submissions count under hybrid, which they run).
	PerEngine map[string]uint64
	// Counters are the executor's plan-cache and exchange counters.
	Counters
	// InFlight and Queued are instantaneous occupancy; QueuedHighWater is
	// the deepest the tenant queues have been in total.
	InFlight, Queued, QueuedHighWater int
	// P50/P95/P99/Max are submit-to-finish latency quantiles over the
	// most recent latencyWindow served queries.
	P50, P95, P99, Max time.Duration
	// MorselsDispatched counts morsel claims made by this service's
	// queries (attributed per service via exec.WithMorselCounter).
	MorselsDispatched int64
	// Uptime is the time since New.
	Uptime time.Duration
}

// snapshot computes quantiles from the ring. Caller holds the service
// mutex.
func (a *statsAcc) snapshot() Stats {
	st := Stats{
		Served:          a.served,
		Failed:          a.failed,
		Canceled:        a.canceled,
		Rejected:        a.rejected,
		PreparedServed:  a.preparedServed,
		StreamedServed:  a.streamedServed,
		QueuedHighWater: a.queuedHighWater,
		PerEngine:       make(map[string]uint64, len(a.perEngine)),
	}
	for k, v := range a.perEngine {
		st.PerEngine[k] = v
	}
	n := min(a.nLat, latencyWindow)
	if n > 0 {
		s := make([]time.Duration, n)
		copy(s, a.lat[:n])
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		st.P50 = s[n/2]
		st.P95 = s[n*95/100]
		st.P99 = s[n*99/100]
		st.Max = s[n-1]
	}
	return st
}

// MarshalJSON renders the snapshot machine-readable (cmd/serve
// -statsjson): durations as float milliseconds, throughput precomputed,
// counters verbatim.
func (st Stats) MarshalJSON() ([]byte, error) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	type tenantJSON struct {
		Served   uint64  `json:"served"`
		Failed   uint64  `json:"failed"`
		Canceled uint64  `json:"canceled"`
		Rejected uint64  `json:"rejected"`
		Streamed uint64  `json:"streamed"`
		Running  int     `json:"running"`
		Queued   int     `json:"queued"`
		Weight   int     `json:"weight"`
		P50Ms    float64 `json:"p50_ms"`
		P95Ms    float64 `json:"p95_ms"`
		P99Ms    float64 `json:"p99_ms"`
		MaxMs    float64 `json:"max_ms"`
	}
	tenants := make(map[string]tenantJSON, len(st.Tenants))
	for name, t := range st.Tenants {
		tenants[name] = tenantJSON{
			Served: t.Served, Failed: t.Failed, Canceled: t.Canceled, Rejected: t.Rejected,
			Streamed: t.Streamed, Running: t.Running, Queued: t.Queued, Weight: t.Weight,
			P50Ms: ms(t.P50), P95Ms: ms(t.P95), P99Ms: ms(t.P99), MaxMs: ms(t.Max),
		}
	}
	return json.Marshal(struct {
		Submitted       uint64                `json:"submitted"`
		Served          uint64                `json:"served"`
		Failed          uint64                `json:"failed"`
		Canceled        uint64                `json:"canceled"`
		Rejected        uint64                `json:"rejected"`
		Prepared        uint64                `json:"prepared_served"`
		Streamed        uint64                `json:"streamed_served"`
		QPS             float64               `json:"qps"`
		PerEngine       map[string]uint64     `json:"per_engine"`
		Tenants         map[string]tenantJSON `json:"tenants"`
		InFlight        int                   `json:"in_flight"`
		Queued          int                   `json:"queued"`
		QueuedHighWater int                   `json:"queued_high_water"`
		CacheHits       uint64                `json:"plan_cache_hits"`
		CacheMisses     uint64                `json:"plan_cache_misses"`
		CacheEvictions  uint64                `json:"plan_cache_evictions"`
		Scattered       uint64                `json:"exchange_scattered"`
		SingleShard     uint64                `json:"exchange_single_shard"`
		Fallback        uint64                `json:"exchange_fallback"`
		P50Ms           float64               `json:"p50_ms"`
		P95Ms           float64               `json:"p95_ms"`
		P99Ms           float64               `json:"p99_ms"`
		MaxMs           float64               `json:"max_ms"`
		Morsels         int64                 `json:"morsels_dispatched"`
		UptimeMs        float64               `json:"uptime_ms"`
	}{
		Submitted: st.Submitted,
		Served:    st.Served, Failed: st.Failed, Canceled: st.Canceled, Rejected: st.Rejected,
		Prepared: st.PreparedServed, Streamed: st.StreamedServed,
		QPS: st.QPS(), PerEngine: st.PerEngine, Tenants: tenants,
		InFlight: st.InFlight, Queued: st.Queued, QueuedHighWater: st.QueuedHighWater,
		CacheHits: st.PlanCacheHits, CacheMisses: st.PlanCacheMisses, CacheEvictions: st.PlanCacheEvictions,
		Scattered: st.ExchangeScattered, SingleShard: st.ExchangeSingleShard, Fallback: st.ExchangeFallback,
		P50Ms: ms(st.P50), P95Ms: ms(st.P95), P99Ms: ms(st.P99), MaxMs: ms(st.Max),
		Morsels: st.MorselsDispatched, UptimeMs: ms(st.Uptime),
	})
}

// QPS is the served-query throughput over the service's uptime.
func (st Stats) QPS() float64 {
	if st.Uptime <= 0 {
		return 0
	}
	return float64(st.Served) / st.Uptime.Seconds()
}

// String renders the snapshot as a small human-readable report (used by
// cmd/serve).
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served %d (%.1f q/s)  failed %d  canceled %d  rejected %d\n",
		st.Served, st.QPS(), st.Failed, st.Canceled, st.Rejected)
	engines := make([]string, 0, len(st.PerEngine))
	for e := range st.PerEngine {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	for _, e := range engines {
		fmt.Fprintf(&b, "  %-12s %d\n", e, st.PerEngine[e])
	}
	if st.PreparedServed > 0 || st.PlanCacheHits+st.PlanCacheMisses > 0 {
		fmt.Fprintf(&b, "prepared %d  plan cache hits %d  misses %d  evictions %d\n",
			st.PreparedServed, st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheEvictions)
	}
	if st.StreamedServed > 0 {
		fmt.Fprintf(&b, "streamed %d\n", st.StreamedServed)
	}
	if len(st.Tenants) > 1 || (len(st.Tenants) == 1 && st.Tenants[DefaultTenant].Served == 0) {
		names := make([]string, 0, len(st.Tenants))
		for n := range st.Tenants {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t := st.Tenants[n]
			fmt.Fprintf(&b, "tenant %-10s served %-6d rejected %-5d p50 %v  p99 %v  max %v\n",
				n, t.Served, t.Rejected, t.P50, t.P99, t.Max)
		}
	}
	fmt.Fprintf(&b, "latency p50 %v  p95 %v  p99 %v  max %v\n", st.P50, st.P95, st.P99, st.Max)
	fmt.Fprintf(&b, "in flight %d  queued %d (high water %d)  morsels %d  uptime %v\n",
		st.InFlight, st.Queued, st.QueuedHighWater, st.MorselsDispatched, st.Uptime.Round(time.Millisecond))
	return b.String()
}
