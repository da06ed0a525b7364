// Package hybrid is the per-pipeline mixed-paradigm executor — the
// plan-driven generalization of the paper's relaxed-operator-fusion
// observation (§9.1) that neither compiled nor vectorized execution
// dominates: probe-heavy pipelines want vector-at-a-time access (full
// memory parallelism across a batch of cache-missing lookups), while
// compute-dominated pipelines want fused tuple-at-a-time loops (no
// materialization of intermediates).
//
// Both lowering backends read one pipeline decomposition
// (logical.Decompose), so hash-table layouts match word for word. This
// package is the hybrid engine's policy over the shared pipeline
// driver (logical.Drive): it decomposes a plan once, lowers both
// backends from that result, and assigns every pipeline to an engine
// by a static cost heuristic (CostAssign), keeping no state between
// executions. The driver runs the pipelines in dependency order, exchanging data through the
// materialization boundaries that already exist: shared hash tables
// (standardized on the compiled backend's Mix64 hash so either engine
// can build what the other probes) and the shared aggregation spill.
// All workers run a given pipeline on the same engine, so engine-local
// state (aggregation hashing, vector buffers) never crosses paradigms.
// Hybrid has no driver of its own: an all-"t" assignment is the typer
// engine and an all-"v" assignment is tectorwise.
//
// Vectorized pipelines additionally pick their vector size
// micro-adaptively (§8.4): each worker times a few batches at each
// candidate size and commits to the fastest, per pipeline.
package hybrid

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"paradigms/internal/compiled"
	"paradigms/internal/logical"
	"paradigms/internal/plan"
	"paradigms/internal/simd"
)

// Engine selects the backend of one pipeline.
type Engine = logical.PipeEngine

const (
	// EngineCompiled runs a pipeline as internal/compiled's fused
	// tuple-at-a-time loop.
	EngineCompiled = logical.PipeFused
	// EngineVectorized runs a pipeline on internal/plan's vectorized
	// operators via internal/logical's lowering.
	EngineVectorized = logical.PipeVectorized
)

// PipeMeta describes one pipeline for the assignment: its spine table,
// how many hash probes and filter conjuncts it runs, and whether it
// terminates in a hash-table build.
type PipeMeta struct {
	Table   string
	Probes  int
	Filters int
	Build   bool
}

// CostAssign is the hybrid's assignment (§4.1): probing *final* pipelines go
// vectorized (a batch of hash probes overlaps its cache misses, and
// the final pipeline scans the fact table, so probe stalls dominate
// it), while build pipelines and filter-only pipelines go compiled —
// a build ends in a materialization boundary either way, so the fused
// loop's zero intermediate cost wins even when the build itself
// probes.
func CostAssign(meta []PipeMeta) []Engine {
	out := make([]Engine, len(meta))
	for i, m := range meta {
		if m.Probes > 0 && !m.Build {
			out[i] = EngineVectorized
		} else {
			out[i] = EngineCompiled
		}
	}
	return out
}

// Report describes one hybrid execution: the engine each pipeline ran
// on and the vector size each vectorized pipeline settled on (0 for
// compiled pipelines).
type Report struct {
	Assign []Engine
	Vec    []int
}

// Suffix renders the assignment as "[t,v,...]" — the decoration
// appended to the engine name in EXPLAIN, \statsz, and EngineUsed.
func (r *Report) Suffix() string {
	parts := make([]string, len(r.Assign))
	for i, e := range r.Assign {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// JoinHash is the hash function of every join hash table a hybrid
// execution builds, on both backends: the compiled engine's Mix64,
// applied 4-way unrolled on the vectorized side. Standardizing the
// join hash is what lets a table built by one engine be probed by the
// other.
var JoinHash plan.HashFn = simd.HashMix64Unrolled

// vecCandidates are the micro-adaptive vector-size trial points
// (§8.4): small enough to stay L1-resident, large enough to amortize
// interpretation. Buffers are allocated at the largest candidate.
var vecCandidates = [...]int{256, 1024, 4096}

// trialBatches is how many batches each candidate size is timed for
// before committing.
const trialBatches = 4

// Policy is the hybrid row of the engine policy table: the plan lowered
// on both backends, each pipeline assigned by CostAssign, JoinHash on
// every join table, and the given vector size (0 = micro-adaptive
// racing).
func Policy(pl *logical.Plan, vecSize int) (logical.Policy, error) {
	pipes := logical.Decompose(pl)
	cp, err := compiled.LowerPipes(pl, pipes)
	if err != nil {
		return logical.Policy{}, err
	}
	vp, err := logical.LowerVecPipes(pl, pipes)
	if err != nil {
		return logical.Policy{}, err
	}
	pol := logical.Policy{Fused: cp, Vec: vp, Assign: CostAssign(pipeMeta(pipes)), JoinHash: JoinHash, VecSize: vecSize}
	if vecSize <= 0 {
		pol.VecSize = vecCandidates[len(vecCandidates)-1]
		pol.Drain = drainAdaptive
	}
	return pol, nil
}

// pipeMeta describes the plan's pipelines for the assignment.
func pipeMeta(pipes []*logical.Pipeline) []PipeMeta {
	meta := make([]PipeMeta, len(pipes))
	for i, p := range pipes {
		f := &p.Filters
		meta[i] = PipeMeta{
			Table:   p.Scan.Table.Name,
			Probes:  len(p.Steps),
			Filters: len(f.Ranges) + len(f.Strs) + len(f.Residual),
			Build:   p.Key != nil,
		}
	}
	return meta
}

// ExecuteRouted materializes an optimized, fully bound plan under
// Policy(pl, vecSize), with assign — one Engine per pipeline — in place
// of CostAssign's assignment (nil, or a length that differs from the
// pipeline count, keeps CostAssign's); the returned Report describes
// the run.
func ExecuteRouted(ctx context.Context, pl *logical.Plan, nWorkers, vecSize int, assign []Engine) (*logical.Result, *Report, error) {
	pol, err := Policy(pl, vecSize)
	if err != nil {
		return nil, nil, err
	}
	if len(assign) == len(pol.Assign) {
		pol.Assign = assign
	}
	out, err := logical.Drive(ctx, pl, nWorkers, pol, logical.Mode{})
	if err != nil {
		return nil, nil, err
	}
	return out.Result, &Report{Assign: pol.Assign, Vec: out.Vec}, nil
}

// drainAdaptive drives a vectorized pipeline with micro-adaptive
// vector sizing: time trialBatches batches at each candidate size,
// commit to the fastest (ns per scanned row), drain the rest at that
// size. The batch stream is identical to a fixed-size drain — trial
// batches are consumed normally, only their size varies. vec is the
// size the pipeline's buffers were allocated at.
func drainAdaptive(root plan.Operator, scan *plan.Scan, sink plan.Sink, vec int) int {
	sizes := candidates(vec)
	costs := trialCosts(root, scan, sink, sizes, time.Now)
	if len(costs) < len(sizes) {
		return sizes[len(costs)] // exhausted mid-trial: sizing is moot
	}
	best := 0
	for i, c := range costs {
		if c < costs[best] {
			best = i
		}
	}
	scan.SetVec(sizes[best])
	var b plan.Batch
	for root.Next(&b) {
		sink.Consume(&b)
	}
	return sizes[best]
}

// candidates clamps the trial sizes to vec, the buffers' size — the one
// place Scan.SetVec's bound is kept. The driver allocates buffers no
// longer than the query's largest scan, so on a small table several
// candidates collapse into one.
func candidates(vec int) [len(vecCandidates)]int {
	sizes := vecCandidates
	for i := range sizes {
		sizes[i] = min(sizes[i], vec)
	}
	return sizes
}

// trialCosts runs trialBatches batches at each candidate vector size
// and returns each candidate's cost in ns per scanned row, stopping
// short at the candidate during which the pipeline ran dry. Rows are
// counted by scan progress, not by the batches that reach the sink:
// filters and probes loop past empty windows internally, so under a
// selective predicate a trial scans many more windows than it emits.
func trialCosts(root plan.Operator, scan *plan.Scan, sink plan.Sink, sizes [len(vecCandidates)]int, now func() time.Time) []float64 {
	var b plan.Batch
	costs := make([]float64, 0, len(sizes))
	for _, c := range sizes {
		scan.SetVec(c)
		from := scan.Scanned()
		t0 := now()
		for k := 0; k < trialBatches; k++ {
			if !root.Next(&b) {
				return costs
			}
			sink.Consume(&b)
		}
		costs = append(costs, float64(now().Sub(t0).Nanoseconds())/float64(scan.Scanned()-from))
	}
	return costs
}

// Explain renders the hybrid's assignment (the cost heuristic) above
// the shared pipeline decomposition.
func Explain(pl *logical.Plan) (string, error) {
	meta := pipeMeta(logical.Decompose(pl))
	assign := CostAssign(meta)
	var sb strings.Builder
	fmt.Fprintf(&sb, "hybrid assignment (cost heuristic): %s\n", (&Report{Assign: assign}).Suffix())
	for i, m := range meta {
		kind := "final"
		if m.Build {
			kind = "build"
		}
		name := "compiled"
		if assign[i] == EngineVectorized {
			name = "vectorized"
		}
		fmt.Fprintf(&sb, "P%d %s (%s): %s — %d probes, %d filters\n", i+1, m.Table, kind, name, m.Probes, m.Filters)
	}
	for _, a := range assign {
		if a == EngineVectorized {
			sizes := make([]string, len(vecCandidates))
			for i, v := range vecCandidates {
				sizes[i] = strconv.Itoa(v)
			}
			fmt.Fprintf(&sb, "vectorized pipelines pick their vector size per worker from {%s} (micro-adaptive)\n",
				strings.Join(sizes, ", "))
			break
		}
	}
	body, err := compiled.Explain(pl)
	if err != nil {
		return "", err
	}
	sb.WriteString(body)
	return sb.String(), nil
}
