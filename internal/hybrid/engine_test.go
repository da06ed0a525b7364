package hybrid

import (
	"context"
	"reflect"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/queries"
	"paradigms/internal/tpch"
)

// q3Rows maps a typed Q3 result into the SQL subsystem's raw row
// layout (same mapping as sqlcheck.RefRows, local to avoid the import
// cycle with the differential harness).
func q3Rows(res queries.Q3Result) [][]int64 {
	var out [][]int64
	for _, r := range res {
		out = append(out, []int64{int64(r.OrderKey), r.Revenue, int64(r.OrderDate), int64(r.ShipPriority)})
	}
	return out
}

// TestGenericHybridMatchesHandWrittenROF is the ablation pin: the
// plan-driven per-pipeline executor on the canonical Q3 SQL text must
// reproduce queries.RefQ3 bit for bit — the reference the hand-written
// ROF monolith was checked against before it was deleted. The SF 0.2
// single-worker row overflows the fused pipeline's pre-aggregation
// table, so the spill path is covered too.
func TestGenericHybridMatchesHandWrittenROF(t *testing.T) {
	text, ok := logical.SQLText("tpch", "Q3")
	if !ok {
		t.Fatal("no canonical Q3 SQL text")
	}
	for _, tc := range []struct {
		sf      float64
		workers []int
	}{{0.01, []int{1, 4}}, {0.05, []int{1, 4}}, {0.2, []int{1}}} {
		db := tpch.Generate(tc.sf, 0)
		want := q3Rows(queries.RefQ3(db))
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range tc.workers {
			for _, r := range []Router{nil, &fixedRouter{pattern: []Engine{EngineCompiled}}} {
				res, _, err := ExecuteRouted(context.Background(), pl, workers, 0, r)
				if err != nil {
					t.Fatalf("sf=%v w=%d: %v", tc.sf, workers, err)
				}
				if !reflect.DeepEqual(res.Rows, want) {
					t.Errorf("sf=%v w=%d router=%v: generic hybrid differs from the Q3 reference\n got %v\nwant %v",
						tc.sf, workers, r != nil, res.Rows, want)
				}
			}
		}
	}
}

// fixedRouter forces a repeating engine pattern onto every pipeline
// and records what Observe reports back.
type fixedRouter struct {
	pattern  []Engine
	observed [][]Engine
	nanos    [][]int64
}

func (f *fixedRouter) Decide(meta []PipeMeta) []Engine {
	out := make([]Engine, len(meta))
	for i := range out {
		out[i] = f.pattern[i%len(f.pattern)]
	}
	return out
}

func (f *fixedRouter) Observe(assign []Engine, nanos []int64) {
	f.observed = append(f.observed, assign)
	f.nanos = append(f.nanos, nanos)
}

// TestForcedAssignmentsAllAgree: every forced per-pipeline assignment
// — all compiled, all vectorized, and both alternations — produces the
// reference rows on Q3 and Q5. This exercises every cross-engine
// handoff direction through the shared hash tables.
func TestForcedAssignmentsAllAgree(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	patterns := [][]Engine{
		{EngineCompiled},
		{EngineVectorized},
		{EngineCompiled, EngineVectorized},
		{EngineVectorized, EngineCompiled},
	}
	for _, name := range []string{"Q3", "Q5"} {
		text, ok := logical.SQLText("tpch", name)
		if !ok {
			t.Fatalf("no canonical %s SQL text", name)
		}
		pl, err := logical.Prepare(db, text)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]int64
		for _, pat := range patterns {
			r := &fixedRouter{pattern: pat}
			res, rep, err := ExecuteRouted(context.Background(), pl, 4, 0, r)
			if err != nil {
				t.Fatalf("%s pattern %v: %v", name, pat, err)
			}
			if want == nil {
				want = res.Rows
			} else if !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("%s pattern %v differs:\n got %v\nwant %v", name, pat, res.Rows, want)
			}
			// The report reflects the forced assignment, and Observe got
			// one latency per pipeline.
			if !reflect.DeepEqual(rep.Assign, r.Decide(make([]PipeMeta, len(rep.Assign)))) {
				t.Errorf("%s pattern %v: report assignment %v does not match", name, pat, rep.Assign)
			}
			if len(r.observed) != 1 || len(r.nanos[0]) != len(rep.Assign) {
				t.Errorf("%s pattern %v: router observed %d times with %v", name, pat, len(r.observed), r.nanos)
			}
			for i, e := range rep.Assign {
				if e == EngineCompiled && rep.Vec[i] != 0 {
					t.Errorf("%s pattern %v: compiled pipeline %d reports vector size %d", name, pat, i, rep.Vec[i])
				}
				if e == EngineVectorized && rep.Vec[i] == 0 {
					t.Errorf("%s pattern %v: vectorized pipeline %d reports no vector size", name, pat, i)
				}
			}
		}
	}
}

// TestFixedVectorSizeDisablesAdaptivity: an explicit vector size must
// be honored verbatim by every vectorized pipeline (no trials).
func TestFixedVectorSizeDisablesAdaptivity(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	text, _ := logical.SQLText("tpch", "Q3")
	pl, err := logical.Prepare(db, text)
	if err != nil {
		t.Fatal(err)
	}
	r := &fixedRouter{pattern: []Engine{EngineVectorized}}
	res, rep, err := ExecuteRouted(context.Background(), pl, 2, 513, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, v := range rep.Vec {
		if v != 513 {
			t.Errorf("pipeline %d ran at vector size %d, want the fixed 513", i, v)
		}
	}
}
