package prepcache

import (
	"sync"
	"time"

	"paradigms/internal/hybrid"
	"paradigms/internal/obs"
)

// ProbeEvery sets the router's exploration rate: every ProbeEvery-th
// decision runs one pipeline on its currently-losing arm (a
// deterministic epsilon-greedy schedule with ε = 1/ProbeEvery), so a
// shift in relative performance is always discovered.
const ProbeEvery = 8

// ewmaAlpha is the weight of the newest observation.
const ewmaAlpha = 0.25

// PipelineRouter is the statement's one adaptive engine router: engine
// Auto runs the hybrid executor with the statement's PipelineRouter
// (one per cached statement, owned by its Statement) picking an engine
// for each pipeline of the plan. It implements hybrid.Router. The
// all-compiled and all-vectorized assignments are two of its corners,
// so routing per pipeline subsumes picking one engine per statement.
//
// Each pipeline is a two-armed bandit (compiled vs vectorized) with a
// deterministic epsilon-greedy schedule (no random source): arms are
// seeded by the cost heuristic (hybrid.CostAssign) — the heuristic's
// arm runs first, the other arm is tried once — then the lower-EWMA
// arm wins, except that every ProbeEvery-th Decide flips one pipeline
// (rotating, so no pipeline's losing arm is starved) to keep its
// estimate fresh. Flipping one pipeline at a time keeps the probe's
// blast radius to a single pipeline of a single execution.
//
// When the plan's pipeline *shape* changes (replanning after a catalog
// change, or a feedback-driven re-plan that reorders or recomposes the
// pipelines), all estimates reset: arm histories describe pipelines
// that no longer exist. The reset keys on the shape fingerprint — the
// same fields obs.ShapeHash covers — not the pipeline count, because a
// re-plan can swap pipeline composition at equal count (e.g. reorder
// two build chains), and reusing the stale EWMAs would attribute one
// pipeline's history to another.
type PipelineRouter struct {
	mu      sync.Mutex
	decides uint64
	shape   string
	arms    []pipeArms
}

// pipeArms is one pipeline's bandit state, indexed by hybrid.Engine
// (0 = compiled, 1 = vectorized).
type pipeArms struct {
	n    [2]uint64
	ewma [2]float64 // latency EWMA, nanoseconds
}

// metaShape fingerprints the pipeline decomposition the router is
// tracking, over the same fields as obs.ShapeHash (table, build/final
// role, probe count, in pipeline order) — so the router's notion of
// "same plan" matches the feedback store's.
func metaShape(meta []hybrid.PipeMeta) string {
	pipes := make([]obs.PipeStat, len(meta))
	for i, m := range meta {
		pipes[i] = obs.PipeStat{Table: m.Table, Build: m.Build, Probes: m.Probes}
	}
	return obs.ShapeHash(pipes)
}

// Decide assigns an engine to every pipeline. Safe for concurrent use;
// deterministic given the call sequence.
func (p *PipelineRouter) Decide(meta []hybrid.PipeMeta) []hybrid.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	if shape := metaShape(meta); shape != p.shape {
		p.arms = make([]pipeArms, len(meta)) // plan shape changed: reset
		p.decides = 0
		p.shape = shape
	}
	p.decides++
	seed := hybrid.CostAssign(meta)
	out := make([]hybrid.Engine, len(meta))
	probePipe := -1
	if p.decides%ProbeEvery == 0 && len(meta) > 0 {
		probePipe = int(p.decides/ProbeEvery) % len(meta)
	}
	for i := range meta {
		a := &p.arms[i]
		s := int(seed[i])
		switch {
		case a.n[s] == 0:
			out[i] = seed[i] // heuristic's arm first
		case a.n[1-s] == 0:
			out[i] = hybrid.Engine(1 - s) // then the other, once
		default:
			best := 0
			if a.ewma[1] < a.ewma[0] {
				best = 1
			}
			if i == probePipe {
				best = 1 - best
			}
			out[i] = hybrid.Engine(best)
		}
	}
	return out
}

// Observe feeds one execution's per-pipeline latencies back into the
// chosen arms' EWMAs. Observations whose shape doesn't match the
// current plan (a replan raced the execution) are dropped — they
// describe pipelines the router no longer tracks. Non-positive
// latencies are skipped.
func (p *PipelineRouter) Observe(assign []hybrid.Engine, nanos []int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(assign) != len(p.arms) || len(nanos) != len(assign) {
		return
	}
	for i, e := range assign {
		d := float64(nanos[i])
		if d <= 0 {
			continue
		}
		j := int(e)
		if j < 0 || j > 1 {
			continue
		}
		a := &p.arms[i]
		if a.n[j] == 0 {
			a.ewma[j] = d
		} else {
			a.ewma[j] = (1-ewmaAlpha)*a.ewma[j] + ewmaAlpha*d
		}
		a.n[j]++
	}
}

// PipeArmStats is one pipeline's routing state, indexed by
// hybrid.Engine.
type PipeArmStats struct {
	N    [2]uint64
	Ewma [2]time.Duration
}

// PipeSnapshot reports every pipeline's observation counts and latency
// estimates.
func (p *PipelineRouter) PipeSnapshot() []PipeArmStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PipeArmStats, len(p.arms))
	for i, a := range p.arms {
		out[i] = PipeArmStats{
			N:    a.n,
			Ewma: [2]time.Duration{time.Duration(a.ewma[0]), time.Duration(a.ewma[1])},
		}
	}
	return out
}
