package prepcache

import (
	"testing"
	"time"

	"paradigms/internal/engine"
)

// fakeClock is a deterministic latency model driving the router the
// way real executions would: each pick "runs" on the chosen engine,
// advances the clock by that engine's current latency, and feeds the
// observation back. No real time is involved anywhere.
type fakeClock struct {
	now time.Duration
	lat map[string]time.Duration
}

func (c *fakeClock) run(r *Router) string {
	engine := r.Pick()
	d := c.lat[engine]
	c.now += d
	r.Observe(engine, d)
	return engine
}

// TestRouterConvergesToFasterEngine: with Tectorwise the fastest of
// the three arms, the router settles on it for all non-probe picks
// while still probing the losing arms on the deterministic epsilon
// schedule (no starvation); when the latency relation flips, the
// router flips with it.
func TestRouterConvergesToFasterEngine(t *testing.T) {
	r := &Router{}
	clock := &fakeClock{lat: map[string]time.Duration{
		engine.Typer:      5 * time.Millisecond,
		engine.Tectorwise: 1 * time.Millisecond,
		engine.Hybrid:     3 * time.Millisecond,
	}}

	const rounds = 400
	picks := map[string]int{}
	var last100 []string
	for i := 0; i < rounds; i++ {
		e := clock.run(r)
		picks[e]++
		last100 = append(last100, e)
		if len(last100) > 100 {
			last100 = last100[1:]
		}
	}

	// Convergence: the fast engine dominates overall and at steady
	// state wins every pick except the scheduled probes.
	if fast := picks[engine.Tectorwise]; fast < rounds*3/4 {
		t.Fatalf("router did not converge: fast engine picked %d/%d", fast, rounds)
	}
	steadyFast := 0
	for _, e := range last100 {
		if e == engine.Tectorwise {
			steadyFast++
		}
	}
	if want := 100 - 100/ProbeEvery - 1; steadyFast < want {
		t.Fatalf("steady state not reached: fast engine %d/100 of last picks (want >= %d)", steadyFast, want)
	}

	// No starvation: each losing arm keeps being probed on schedule
	// (the probes rotate over the numArms-1 non-best arms).
	if slow := picks[engine.Typer]; slow < rounds/((numArms-1)*ProbeEvery)-2 {
		t.Fatalf("probe arm starved: slowest engine picked only %d times over %d rounds", slow, rounds)
	}
	if mid := picks[engine.Hybrid]; mid < rounds/((numArms-1)*ProbeEvery)-2 {
		t.Fatalf("probe arm starved: middle engine picked only %d times over %d rounds", mid, rounds)
	}

	// Flip the latencies: Typer becomes the fast engine. The probes
	// keep its EWMA fresh, so the router must flip its preference.
	clock.lat[engine.Typer] = 500 * time.Microsecond
	clock.lat[engine.Tectorwise] = 4 * time.Millisecond
	flipped := -1
	for i := 0; i < 200; i++ {
		clock.run(r)
		if flipped < 0 && r.Best() == engine.Typer {
			flipped = i
		}
	}
	if flipped < 0 {
		t.Fatalf("router never flipped after the latency inversion: %+v", r.Snapshot())
	}
	// The flip requires probing the now-fast arm (once per
	// (numArms-1)*ProbeEvery picks) and a few EWMA steps; a few probe
	// cycles must suffice.
	if flipped > 10*ProbeEvery {
		t.Fatalf("router flipped too slowly: after %d picks (want <= %d)", flipped, 10*ProbeEvery)
	}
	tail := 0
	for i := 0; i < 100; i++ {
		if clock.run(r) == engine.Typer {
			tail++
		}
	}
	if want := 100 - 100/ProbeEvery - 1; tail < want {
		t.Fatalf("router did not settle on the new fast engine: %d/100 (want >= %d)", tail, want)
	}
}

// TestRouterTriesEachArmFirst: the first numArms picks measure each
// engine once before any preference forms.
func TestRouterTriesEachArmFirst(t *testing.T) {
	r := &Router{}
	seen := map[string]bool{}
	var order []string
	for i := 0; i < numArms; i++ {
		e := r.Pick()
		if seen[e] {
			t.Fatalf("router picked %s twice before measuring every arm (order %v)", e, order)
		}
		seen[e] = true
		order = append(order, e)
		if r.Best() != "" {
			t.Fatalf("Best() = %q before all arms observed", r.Best())
		}
		r.Observe(e, time.Duration(i+1)*time.Millisecond)
	}
	if got := r.Best(); got != order[0] {
		t.Fatalf("Best() = %q, want the faster %q", got, order[0])
	}
}

// TestRouterRoutesAroundFailingArm: a backend that always fails is
// penalized rather than left untried, so auto routing settles on a
// healthy arm instead of retrying the broken one forever — while the
// epsilon probe keeps re-checking it, so a recovered backend heals.
func TestRouterRoutesAroundFailingArm(t *testing.T) {
	r := &Router{}
	broken := engine.Typer
	failures := 0
	for i := 0; i < 100; i++ {
		e := r.Pick()
		if e == broken {
			failures++
			r.ObserveFailure(e)
		} else {
			r.Observe(e, time.Millisecond)
		}
	}
	// The broken arm is tried once up front and then only on its share
	// of the probe schedule — never as the preferred arm.
	if max := 1 + 100/ProbeEvery + 1; failures > max {
		t.Fatalf("broken arm picked %d/100 times (want <= %d)", failures, max)
	}
	// Recovery: the broken arm starts succeeding faster than the
	// healthy ones; probes must heal its EWMA and flip the preference.
	// Decaying a 1s penalty below 1ms at α=0.25 takes ~25 probe
	// observations, and the probes alternate between the two non-best
	// arms, so ~25·2·ProbeEvery picks.
	for i := 0; i < 60*ProbeEvery; i++ {
		e := r.Pick()
		if e == broken {
			r.Observe(e, 100*time.Microsecond)
		} else {
			r.Observe(e, time.Millisecond)
		}
	}
	if r.Best() != broken {
		t.Fatalf("recovered arm never regained preference: %+v", r.Snapshot())
	}
}

// TestRouterFailurePenaltyScalesToWorkload: on a statement whose
// healthy latency exceeds 1s, a persistently failing arm must still
// rank slower than the working ones. A fixed 1s penalty ranked the
// broken arm *faster* (1s EWMA vs 5s healthy), converging auto-routing
// onto the arm that never succeeds; the penalty now scales to a
// multiple of the worst other observed arm's EWMA.
func TestRouterFailurePenaltyScalesToWorkload(t *testing.T) {
	r := &Router{}
	broken := engine.Hybrid
	healthy := 5 * time.Second
	failures := 0
	for i := 0; i < 200; i++ {
		e := r.Pick()
		if e == broken {
			failures++
			r.ObserveFailure(e)
		} else {
			r.Observe(e, healthy)
		}
	}
	if got := r.Best(); got == broken {
		t.Fatalf("auto routing converged on the failing arm: %+v", r.Snapshot())
	}
	// The broken arm is tried once up front, then only on its probe
	// share — never as the preferred arm.
	if max := 1 + 200/ProbeEvery + 1; failures > max {
		t.Fatalf("broken arm picked %d/200 times (want <= %d)", failures, max)
	}
	// The penalty must clear the healthy EWMA with margin, and repeated
	// failures must saturate rather than compound without bound.
	for _, arm := range r.Snapshot() {
		if arm.Engine != broken {
			continue
		}
		if arm.Ewma <= healthy {
			t.Fatalf("failing arm EWMA %v does not exceed healthy %v", arm.Ewma, healthy)
		}
		if arm.Ewma > 2*failurePenaltyFactor*healthy {
			t.Fatalf("failing arm EWMA %v compounded past the scaled penalty %v", arm.Ewma, failurePenaltyFactor*healthy)
		}
	}
	// Sub-second statements keep the floor: a fresh router that has
	// only seen microsecond latencies still penalizes failures at >= 1s.
	r2 := &Router{}
	r2.Observe(engine.Typer, 50*time.Microsecond)
	r2.Observe(engine.Tectorwise, 60*time.Microsecond)
	r2.ObserveFailure(engine.Hybrid)
	for _, arm := range r2.Snapshot() {
		if arm.Engine == engine.Hybrid && arm.Ewma < failurePenaltyFloor {
			t.Fatalf("failure penalty %v under the %v floor", arm.Ewma, failurePenaltyFloor)
		}
	}
}

// TestRouterIgnoresUnknownEngine: observations for engines the router
// does not model must not corrupt its state.
func TestRouterIgnoresUnknownEngine(t *testing.T) {
	r := &Router{}
	r.Observe("reference", time.Second)
	for _, a := range r.Snapshot() {
		if a.N != 0 {
			t.Fatalf("unknown engine observation leaked into arm %s", a.Engine)
		}
	}
}

// TestRouterStripsHybridDecoration: an observation reported under the
// decorated name ("hybrid[t,v]") lands in the hybrid arm.
func TestRouterStripsHybridDecoration(t *testing.T) {
	r := &Router{}
	r.Observe(engine.Hybrid+"[t,v,t]", 2*time.Millisecond)
	for _, a := range r.Snapshot() {
		switch a.Engine {
		case engine.Hybrid:
			if a.N != 1 || a.Ewma != 2*time.Millisecond {
				t.Fatalf("decorated observation mishandled: %+v", a)
			}
		default:
			if a.N != 0 {
				t.Fatalf("decorated observation leaked into arm %s", a.Engine)
			}
		}
	}
}
