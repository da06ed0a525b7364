package prepcache

import (
	"sync"
	"time"

	"paradigms/internal/engine"
)

// Auto is the pseudo-engine of adaptive routing: each execution of the
// statement goes to whichever backend its Router currently believes is
// faster.
const Auto = "auto"

// ProbeEvery sets the router's exploration rate: every ProbeEvery-th
// pick routes to a currently-losing arm instead of the fastest one
// (a deterministic epsilon-greedy schedule with ε = 1/ProbeEvery),
// rotating over the losing arms so none is starved. If the workload
// shifts and a losing engine becomes the fastest, its EWMA keeps being
// refreshed and the router flips within a handful of probes.
const ProbeEvery = 8

// ewmaAlpha is the weight of the newest observation.
const ewmaAlpha = 0.25

// failurePenaltyFloor is the minimum latency a failed execution feeds
// into the arm's EWMA. The actual penalty scales with the workload:
// failurePenaltyFactor times the slowest *other* observed arm's EWMA,
// floored here — a fixed 1s penalty would make a persistently failing
// engine rank *faster* than working ones on statements whose healthy
// latency exceeds 1s, converging auto-routing onto the broken arm.
const failurePenaltyFloor = time.Second

// failurePenaltyFactor scales the worst healthy arm's EWMA into the
// failure penalty, so a failed arm always loses the best-arm
// comparison by a wide margin yet heals within a few probes once it
// recovers.
const failurePenaltyFactor = 4

// numArms is the arm count of the statement router.
const numArms = 3

// Router picks the execution engine for one cached statement from
// observed latencies. The arms are fixed: the paper's two paradigms
// plus the per-pipeline hybrid of the two. All methods are safe for
// concurrent use; picks are deterministic given the observation
// sequence (no random source), which is what the convergence tests
// pin.
type Router struct {
	mu    sync.Mutex
	n     [numArms]uint64  // observations per arm
	ewma  [numArms]float64 // latency EWMA per arm, in nanoseconds
	picks uint64
}

// engineArms maps router arm indexes to engine names.
var engineArms = [numArms]string{engine.Typer, engine.Tectorwise, engine.Hybrid}

// armOf resolves an engine name to its arm, ignoring a hybrid
// assignment decoration ("hybrid[t,v]" observes as "hybrid").
func armOf(name string) int {
	name = engine.BaseName(name)
	for i, arm := range engineArms {
		if arm == name {
			return i
		}
	}
	return -1
}

// Pick returns the engine the next execution should run on: an
// untried arm first (each backend is measured at least once), then the
// lowest-EWMA arm, except that every ProbeEvery-th pick rotates over
// the other arms to keep their estimates fresh.
func (r *Router) Pick() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.picks++
	for i := range engineArms {
		if r.n[i] == 0 {
			return engineArms[i]
		}
	}
	best := r.bestLocked()
	if r.picks%ProbeEvery == 0 {
		k := int(r.picks/ProbeEvery) % (numArms - 1)
		for i := range engineArms {
			if i == best {
				continue
			}
			if k == 0 {
				return engineArms[i]
			}
			k--
		}
	}
	return engineArms[best]
}

// bestLocked is the lowest-EWMA arm index. Caller holds mu.
func (r *Router) bestLocked() int {
	best := 0
	for i := 1; i < numArms; i++ {
		if r.ewma[i] < r.ewma[best] {
			best = i
		}
	}
	return best
}

// Observe feeds one successful execution's latency back into the
// engine's EWMA. Unknown engine names (future backends) are ignored;
// hybrid assignment decorations are stripped.
func (r *Router) Observe(engine string, d time.Duration) {
	i := armOf(engine)
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n[i] == 0 {
		r.ewma[i] = float64(d)
	} else {
		r.ewma[i] = (1-ewmaAlpha)*r.ewma[i] + ewmaAlpha*float64(d)
	}
	r.n[i]++
}

// ObserveFailure records one failed execution as a penalty
// observation, so the arm counts as tried (Pick's try-each-arm-first
// phase must not return a persistently failing backend forever) and
// loses the best-arm comparison until it recovers. The penalty is
// failurePenaltyFactor times the slowest other observed arm's EWMA
// (floor failurePenaltyFloor), so it dominates healthy latencies of
// any magnitude; the failing arm's own EWMA is excluded so repeated
// failures saturate at the penalty instead of compounding without
// bound. Cancellations are the caller's to filter out — they say
// nothing about the engine.
func (r *Router) ObserveFailure(engine string) {
	i := armOf(engine)
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	penalty := float64(failurePenaltyFloor)
	for j := range r.ewma {
		if j != i && r.n[j] > 0 && failurePenaltyFactor*r.ewma[j] > penalty {
			penalty = failurePenaltyFactor * r.ewma[j]
		}
	}
	if r.n[i] == 0 {
		r.ewma[i] = penalty
	} else {
		r.ewma[i] = (1-ewmaAlpha)*r.ewma[i] + ewmaAlpha*penalty
	}
	r.n[i]++
}

// ArmStats is one engine's routing state.
type ArmStats struct {
	Engine string
	N      uint64
	Ewma   time.Duration
}

// Snapshot reports the per-arm observation counts and latency
// estimates (sqlsh's \prepare listing, tests).
func (r *Router) Snapshot() []ArmStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ArmStats, len(engineArms))
	for i, name := range engineArms {
		out[i] = ArmStats{Engine: name, N: r.n[i], Ewma: time.Duration(r.ewma[i])}
	}
	return out
}

// Best returns the currently preferred engine ("" until every arm has
// been observed).
func (r *Router) Best() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range engineArms {
		if r.n[i] == 0 {
			return ""
		}
	}
	return engineArms[r.bestLocked()]
}
