package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestCollectorMerge pins the merge discipline: rows and batches add
// across workers, wall time takes the maximum.
func TestCollectorMerge(t *testing.T) {
	c := NewCollector()
	c.SetPipes(2)
	c.DescribePipe(0, "customer", true, 3000, 0, 300)
	c.DescribePipe(1, "lineitem", false, 6000, 1, 600)
	c.PipeWorker(0, 100, 2, 50)
	c.PipeWorker(0, 200, 3, 80)
	c.PipeWorker(0, 50, 1, 30)
	c.PipeWorker(1, 10, 0, 900)

	pipes := c.Pipes()
	if len(pipes) != 2 {
		t.Fatalf("got %d pipes, want 2", len(pipes))
	}
	p := pipes[0]
	if p.Table != "customer" || !p.Build || p.RowsIn != 3000 || p.EstRows != 300 {
		t.Errorf("describe not preserved: %+v", p)
	}
	if p.RowsOut != 350 {
		t.Errorf("RowsOut = %d, want 350 (sum across workers)", p.RowsOut)
	}
	if p.Batches != 6 {
		t.Errorf("Batches = %d, want 6", p.Batches)
	}
	if p.Nanos != 80 {
		t.Errorf("Nanos = %d, want 80 (max across workers)", p.Nanos)
	}
	if got := p.Selectivity(); got != 350.0/3000.0 {
		t.Errorf("Selectivity = %v, want %v", got, 350.0/3000.0)
	}
	if pipes[1].Probes != 1 || pipes[1].Build {
		t.Errorf("pipe 1 shape not preserved: %+v", pipes[1])
	}
}

// TestCollectorSetPipesIdempotent checks a second SetPipes with the
// same count keeps accumulated stats, so a second description of the
// one decomposition (logical.Decompose) loses nothing.
func TestCollectorSetPipesIdempotent(t *testing.T) {
	c := NewCollector()
	c.SetPipes(1)
	c.PipeWorker(0, 42, 1, 10)
	c.SetPipes(1)
	if got := c.Pipes()[0].RowsOut; got != 42 {
		t.Errorf("RowsOut after idempotent SetPipes = %d, want 42", got)
	}
	c.SetPipes(3)
	if got := c.Pipes(); len(got) != 3 || got[0].RowsOut != 0 {
		t.Errorf("resize did not reset: %+v", got)
	}
}

// TestCollectorConcurrent hammers the merge point from many goroutines;
// run under -race this pins the collector's thread safety.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	c.SetPipes(4)
	const workers, rounds = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < 4; i++ {
					c.PipeWorker(i, 1, 1, int64(w*rounds+r))
				}
			}
		}(w)
	}
	wg.Wait()
	for i, p := range c.Pipes() {
		if p.RowsOut != workers*rounds {
			t.Errorf("pipe %d RowsOut = %d, want %d", i, p.RowsOut, workers*rounds)
		}
		if p.Nanos != (workers-1)*rounds+rounds-1 {
			t.Errorf("pipe %d Nanos = %d, want %d", i, p.Nanos, (workers-1)*rounds+rounds-1)
		}
	}
}

// TestCollectorOutOfRange checks out-of-range pipeline indexes are
// ignored rather than panicking (defensive: engine bugs must not crash
// instrumented production runs).
func TestCollectorOutOfRange(t *testing.T) {
	c := NewCollector()
	c.SetPipes(1)
	c.PipeWorker(-1, 1, 1, 1)
	c.PipeWorker(5, 1, 1, 1)
	c.DescribePipe(9, "x", false, 0, 0, 0)
	c.SetPipeEngine(9, "t")
	c.SetVec(9, 1)
	c.SetHTRows(9, 1, 64)
	if got := c.Pipes()[0].RowsOut; got != 0 {
		t.Errorf("out-of-range merge leaked into pipe 0: %d", got)
	}
}

func TestFromContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no collector")
	}
	c := NewCollector()
	if got := FromContext(WithCollector(context.Background(), c)); got != c {
		t.Fatalf("FromContext = %p, want %p", got, c)
	}
}

func TestShapeHash(t *testing.T) {
	a := []PipeStat{{Table: "customer", Build: true}, {Table: "lineitem", Probes: 1}}
	b := []PipeStat{{Table: "customer", Build: true}, {Table: "lineitem", Probes: 1}}
	if ShapeHash(a) != ShapeHash(b) {
		t.Error("identical shapes must hash equal")
	}
	// Stats that vary run-to-run must not affect the hash.
	b[0].RowsOut, b[1].Nanos = 99, 12345
	if ShapeHash(a) != ShapeHash(b) {
		t.Error("dynamic stats must not affect the shape hash")
	}
	c := []PipeStat{{Table: "customer", Build: true}, {Table: "orders", Probes: 1}}
	if ShapeHash(a) == ShapeHash(c) {
		t.Error("different tables must hash differently")
	}
	if len(ShapeHash(a)) != 16 {
		t.Errorf("hash %q is not 16 hex chars", ShapeHash(a))
	}
}

func TestFormatPipes(t *testing.T) {
	out := FormatPipes([]PipeStat{
		{Index: 0, Table: "customer", Build: true, Engine: "t", RowsIn: 3000, RowsOut: 604, HTRows: 604, KeyBits: 3008, EstRows: 300, Nanos: 71000},
		{Index: 1, Table: "lineitem", Engine: "v", RowsIn: 120376, RowsOut: 627, Probes: 1, VecSize: 1024, Workers: 3, EstRows: 1083, Nanos: 1000000},
	})
	for _, want := range []string{"customer", "lineitem", "build", "final", "604", "627", "est_rows", "rows_out", "key_bits", "3008", "workers", " 3 "} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatPipes output missing %q:\n%s", want, out)
		}
	}
}
