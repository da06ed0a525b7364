package paradigms

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"paradigms/internal/engine"
	"paradigms/internal/logical"
	"paradigms/internal/registry"
	"paradigms/internal/sqlcheck"
)

// collectSink is the materialized-result-as-a-RowSink of the matrix
// test: it copies every streamed batch (the sink contract forbids
// retaining the pushed slices).
type collectSink struct {
	cols []logical.OutCol
	rows [][]int64
}

func (c *collectSink) SetCols(cols []logical.OutCol) error {
	c.cols = cols
	return nil
}

func (c *collectSink) PushRows(rows [][]int64) error {
	for _, r := range rows {
		c.rows = append(c.rows, append([]int64(nil), r...))
	}
	return nil
}

// TestEngineMatrix enumerates the execution matrix instead of
// hand-listing corners: every cell of {typer, tectorwise, hybrid} ×
// {literal text, `?` text + args} × {materialize, stream into a
// collecting sink, partial → MergePartials} × workers {1, 4} runs a
// slice of the sqlcheck corpus through engine.Run — the one dispatch
// every caller uses — and must reproduce the oracle's row multiset. The
// one unsupported cell, hybrid × partial, must say so without blaming
// the engine. The dispatch's own contract rides along as subtests: bad
// calls are rejected without blaming a backend, executor panics come
// back as errors, and cancellation is never an engine fault.
func TestEngineMatrix(t *testing.T) {
	t.Run("corpus", engineMatrixCorpus)
	t.Run("bad-calls", engineRunRejectsBadCalls)
	t.Run("panic", engineRunRecoversPanics)
	t.Run("canceled", engineRunCanceled)
}

func engineMatrixCorpus(t *testing.T) {
	tpchDB, ssbDB := sqlDBs()
	ctx := context.Background()
	engines := []string{registry.Typer, registry.Tectorwise, registry.Hybrid}
	modes := []string{"materialize", "stream", "partial"}
	paramCells := 0

	for seed := int64(3000); seed < 3024; seed++ {
		db := tpchDB
		if seed%2 == 1 {
			db = ssbDB
		}
		text, bindings := sqlcheck.GenerateParameterized(rand.New(rand.NewSource(seed)), db)
		lit := sqlcheck.Substitute(text, bindings[0])
		want, err := sqlcheck.Oracle(db, lit)
		if err != nil {
			t.Fatalf("oracle failed for %q: %v", lit, err)
		}

		type form struct {
			label string
			pl    *logical.Plan
			args  []int64
		}
		litPlan, err := logical.Prepare(db, lit)
		if err != nil {
			t.Fatalf("prepare %q: %v", lit, err)
		}
		forms := []form{{"literal", litPlan, nil}}
		if tmpl, err := logical.Prepare(db, text); err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		} else if len(tmpl.Params) > 0 {
			args, err := tmpl.BindTexts(bindings[0])
			if err != nil {
				t.Fatalf("bind %v for %q: %v", bindings[0], text, err)
			}
			forms = append(forms, form{"args", tmpl, args})
		}

		for _, f := range forms {
			for _, name := range engines {
				for _, mode := range modes {
					for _, workers := range []int{1, 4} {
						cell := fmt.Sprintf("%s/%s/%s/w=%d %q %v", name, f.label, mode, workers, text, f.args)
						opt := engine.Options{Args: f.args, Workers: workers}
						var sink collectSink
						switch mode {
						case "stream":
							opt.Sink, opt.Chunk = &sink, 7
						case "partial":
							opt.Partial = true
						}
						out, err := engine.Run(ctx, name, f.pl, opt)
						if name == registry.Hybrid && mode == "partial" {
							if err == nil || !strings.Contains(err.Error(), "no partial-execution path") || out.Faulted {
								t.Fatalf("%s: err=%v faulted=%v, want the unsupported-mode error", cell, err, out.Faulted)
							}
							continue
						}
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						if !strings.HasPrefix(out.Used, name) || (name == registry.Hybrid) != strings.Contains(out.Used, "[") {
							t.Errorf("%s: engine used = %q", cell, out.Used)
						}
						var got [][]int64
						switch mode {
						case "materialize":
							got = out.Result.Rows
						case "stream":
							if len(sink.cols) != len(f.pl.Cols) {
								t.Errorf("%s: streamed %d cols, plan has %d", cell, len(sink.cols), len(f.pl.Cols))
							}
							got = sink.rows
						case "partial":
							// Merge like the exchange coordinator: on the
							// bound plan, so HAVING sees the binding.
							bound, err := f.pl.BindArgs(f.args)
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							res, err := bound.MergePartials([]*logical.Partial{out.Partial})
							if err != nil {
								t.Fatalf("%s: merge: %v", cell, err)
							}
							got = res.Rows
						}
						if !sqlcheck.SameRows(got, want) {
							t.Errorf("%s differs from oracle\n got %v\nwant %v", cell, clip(got), clip(want))
						}
						if f.args != nil {
							paramCells++
						}
					}
				}
			}
		}
	}
	if paramCells == 0 {
		t.Fatal("corpus slice exercised no parameterized statement")
	}
}

// engineRunRejectsBadCalls: the dispatch's own error paths — an
// unknown engine, a wrong-arity binding, a partial execution asked to
// stream — are the caller's errors, reported without running (or
// blaming) a backend.
func engineRunRejectsBadCalls(t *testing.T) {
	db, _ := sqlDBs()
	pl, err := logical.Prepare(db, "select count(*) from orders where o_custkey < ?")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		label, name, want string
		opt               engine.Options
	}{
		{"unknown engine", "reference", "unknown engine", engine.Options{Args: []int64{5}}},
		{"no args", registry.Typer, "wants 1 parameter", engine.Options{}},
		{"extra args", registry.Hybrid, "wants 1 parameter", engine.Options{Args: []int64{5, 6}}},
		{"partial stream", registry.Tectorwise, "cannot stream", engine.Options{Args: []int64{5}, Partial: true, Sink: &collectSink{}}},
	} {
		out, err := engine.Run(ctx, tc.name, pl, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.label, err, tc.want)
		}
		if out.Faulted || out.Result != nil || out.Partial != nil {
			t.Errorf("%s: out = %+v, want no output and no engine fault", tc.label, out)
		}
	}
}

// engineRunRecoversPanics: a panic inside a lowering (here: a plan
// with no root, which every backend's lowering dereferences) comes back
// from engine.Run as an error that blames the engine, in every mode —
// a cached plan cannot take down the query service.
func engineRunRecoversPanics(t *testing.T) {
	db, _ := sqlDBs()
	good, err := logical.Prepare(db, "select o_custkey, count(*) from orders group by o_custkey")
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Root = nil
	for _, name := range []string{registry.Typer, registry.Tectorwise, registry.Hybrid} {
		for _, opt := range []engine.Options{{}, {Sink: &collectSink{}}, {Partial: true}} {
			if name == registry.Hybrid && opt.Partial {
				continue
			}
			out, err := engine.Run(context.Background(), name, &bad, opt)
			if err == nil || !strings.Contains(err.Error(), "internal error") || !out.Faulted {
				t.Errorf("%s %+v: err=%v faulted=%v, want a recovered panic blamed on the engine", name, opt, err, out.Faulted)
			}
		}
	}
}

// engineRunCanceled: a canceled context returns ctx.Err() from
// every engine and mode, and is never an engine fault.
func engineRunCanceled(t *testing.T) {
	db, _ := sqlDBs()
	text, _ := logical.SQLText("tpch", "Q3")
	pl, err := logical.Prepare(db, text)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{registry.Typer, registry.Tectorwise, registry.Hybrid} {
		for _, opt := range []engine.Options{{Workers: 4}, {Workers: 4, Sink: &collectSink{}}} {
			out, err := engine.Run(ctx, name, pl, opt)
			if err != context.Canceled || out.Faulted {
				t.Errorf("%s stream=%v: err=%v faulted=%v, want context.Canceled and no fault", name, opt.Sink != nil, err, out.Faulted)
			}
		}
	}
}
