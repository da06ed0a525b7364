package microsim

import (
	"testing"
	"unsafe"

	"paradigms/internal/tpch"
)

func TestCacheDirectMappedBehavior(t *testing.T) {
	// 4 KB, 1-way: 64 sets. Lines n and n+64 collide.
	c := NewCache(4096, 1)
	if !c.Access(5) == true && c.Misses != 1 {
		t.Fatal("first access should miss")
	}
	if c.Access(5) != true {
		t.Fatal("second access should hit")
	}
	c.Access(5 + 64) // evicts line 5
	if c.Access(5) {
		t.Fatal("line 5 should have been evicted")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2-way, 2 sets (256 B): lines 0, 2, 4 map to set 0.
	c := NewCache(256, 2)
	c.Access(0)
	c.Access(2)
	c.Access(0) // refresh 0 → LRU is 2
	c.Access(4) // evicts 2
	if !c.Access(0) {
		t.Error("0 should still be cached")
	}
	if c.Access(2) {
		t.Error("2 should have been evicted (LRU)")
	}
}

func TestCacheMonotoneWithSize(t *testing.T) {
	// Same access stream: a bigger cache never misses more.
	stream := make([]uint64, 0, 10000)
	state := uint64(7)
	for i := 0; i < 10000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		stream = append(stream, state%2048)
	}
	small := NewCache(16<<10, 8)
	big := NewCache(256<<10, 8)
	for _, line := range stream {
		small.Access(line)
		big.Access(line)
	}
	if big.Misses > small.Misses {
		t.Errorf("bigger cache misses more: %d > %d", big.Misses, small.Misses)
	}
}

func TestCacheGeometryRounding(t *testing.T) {
	// 1000 B, 3-way → 5 sets, rounded down to 4.
	c := NewCache(1000, 3)
	if got := len(c.tags) / 3; got != 4 {
		t.Errorf("sets = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for sub-set-size cache")
		}
	}()
	NewCache(64, 2)
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(12)
	// Always-taken branch: after warmup, no misses.
	for i := 0; i < 1000; i++ {
		bp.Branch(1, true)
	}
	missesAfterWarmup := bp.Misses
	for i := 0; i < 1000; i++ {
		bp.Branch(1, true)
	}
	if bp.Misses != missesAfterWarmup {
		t.Errorf("predictor keeps missing an always-taken branch")
	}
}

func TestBranchPredictorRandomIsBad(t *testing.T) {
	bp := NewBranchPredictor(12)
	state := uint64(3)
	misses0 := bp.Misses
	const n = 20000
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		bp.Branch(2, state>>40&1 != 0) // high LCG bits ≈ random
	}
	rate := float64(bp.Misses-misses0) / n
	if rate < 0.2 {
		t.Errorf("random branch miss rate = %.2f, want ≈0.5", rate)
	}
}

func TestOverlapModelSimpleVsComplexLoops(t *testing.T) {
	// The §4.1 mechanism: a tight loop of consecutive misses overlaps
	// them (stall ≈ lat/LFB each after the leader); a loop with many
	// instructions between misses starts a new group every time.
	data := make([]byte, 64<<20)
	touch := func(c *CPU, opsBetween int) {
		for i := 0; i < 10000; i++ {
			c.Ops(opsBetween)
			c.Load(unsafe.Pointer(&data[(i*997)%len(data)&^63]), 8)
		}
	}
	simple := NewCPU(Skylake)
	touch(simple, 2)
	complexCPU := NewCPU(Skylake)
	touch(complexCPU, 300) // exceeds the ROB window per miss
	if simple.MemStallCycles*2 > complexCPU.MemStallCycles {
		t.Errorf("overlap model broken: simple-loop stalls %d vs complex %d",
			simple.MemStallCycles, complexCPU.MemStallCycles)
	}
}

func TestBranchMissBreaksOverlapGroup(t *testing.T) {
	data := make([]byte, 64<<20)
	state := uint64(9)
	run := func(withRandomBranch bool) uint64 {
		c := NewCPU(Skylake)
		s := state
		for i := 0; i < 20000; i++ {
			c.Ops(2)
			if withRandomBranch {
				s = s*6364136223846793005 + 1
				c.Branch(3, s&64 != 0)
			}
			c.Load(unsafe.Pointer(&data[(i*1021)%len(data)&^63]), 8)
		}
		return c.MemStallCycles
	}
	noBranch := run(false)
	withBranch := run(true)
	if withBranch <= noBranch {
		t.Errorf("mispredicts should reduce miss overlap: %d <= %d", withBranch, noBranch)
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	db := tpch.Generate(0.05, 0)
	rows := Table1(db, Skylake)
	byKey := map[string]Counters{}
	for _, r := range rows {
		byKey[r.Engine+"/"+r.Query] = r
	}
	// Paper Table 1 shape assertions:
	// (1) TW executes significantly more instructions on Q1 (162 vs 68).
	if tw, ty := byKey["tectorwise/Q1"], byKey["typer/Q1"]; tw.Instr < 1.5*ty.Instr {
		t.Errorf("Q1 instructions: TW %.0f vs Typer %.0f, want TW ≥ 1.5×", tw.Instr, ty.Instr)
	}
	// (2) Both engines see nearly identical LLC misses on the join
	// queries (same hash tables).
	for _, q := range []string{"Q3", "Q9"} {
		tw, ty := byKey["tectorwise/"+q], byKey["typer/"+q]
		if ty.LLCMiss == 0 && tw.LLCMiss == 0 {
			continue // tiny SF: tables cache-resident
		}
		ratio := tw.LLCMiss / ty.LLCMiss
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s LLC misses diverge: TW %.3f vs Typer %.3f", q, tw.LLCMiss, ty.LLCMiss)
		}
	}
	// (3) TW has more L1 misses (materialized intermediates).
	if tw, ty := byKey["tectorwise/Q1"], byKey["typer/Q1"]; tw.L1Miss < ty.L1Miss {
		t.Errorf("Q1 L1 misses: TW %.2f < Typer %.2f", tw.L1Miss, ty.L1Miss)
	}
	// (4) Typer Q6 suffers more branch misses than TW Q6 (predication).
	if tw, ty := byKey["tectorwise/Q6"], byKey["typer/Q6"]; tw.BranchMiss > ty.BranchMiss {
		t.Errorf("Q6 branch misses: TW %.3f > Typer %.3f", tw.BranchMiss, ty.BranchMiss)
	}
	// (5) Typer is faster on Q1 (cycles/tuple).
	if tw, ty := byKey["tectorwise/Q1"], byKey["typer/Q1"]; ty.Cycles > tw.Cycles {
		t.Errorf("Q1 cycles: Typer %.1f > TW %.1f", ty.Cycles, tw.Cycles)
	}
}

func TestSSBTableRuns(t *testing.T) {
	db := tpchLikeSSB(t)
	rows := SSBTable(db, Skylake)
	if len(rows) != 8 {
		t.Fatalf("SSB table rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Instr <= 0 || r.Cycles <= 0 {
			t.Errorf("%s/%s has empty counters", r.Engine, r.Query)
		}
	}
}

func TestSIMDModelShapes(t *testing.T) {
	// Fig 6's selection speedups are measured on the AVX-512 kernels
	// (internal/simd), not modeled.
	// Fig 8a/8b: hashing gains well; gathers barely gain.
	h := Hashing(Skylake, 8192)
	g := GatherKernel(Skylake, 256<<20, 4096)
	if h.Speedup < 1.5 {
		t.Errorf("hashing speedup = %.1fx", h.Speedup)
	}
	if g.Speedup > 1.6 {
		t.Errorf("big-working-set gather speedup = %.1fx, want ≈1.1x", g.Speedup)
	}
}

func TestFig7MemoryBound(t *testing.T) {
	rows := Fig7(Skylake, 64<<20, []float64{1.0, 0.5, 0.2})
	// At full density the SIMD variant wins clearly; at low selectivity
	// (large strides, all misses) the gap closes.
	first := rows[0].ScalarCycles / rows[0].SIMDCycles
	last := rows[len(rows)-1].ScalarCycles / rows[len(rows)-1].SIMDCycles
	if last >= first {
		t.Errorf("SIMD gain should shrink with sparsity: %.2f -> %.2f", first, last)
	}
}

func TestThroughputModel(t *testing.T) {
	rows := Throughput(Skylake, "typer", "Q6", 5e8, 3e8, false, 1)
	if len(rows) != Skylake.Cores*Skylake.SMTWays {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotone non-decreasing QPS in cores.
	for i := 1; i < len(rows); i++ {
		if rows[i].QPS < rows[i-1].QPS-1e-9 {
			t.Errorf("QPS decreased at %d cores", rows[i].Cores)
		}
	}
	// Q6 is bandwidth bound: the ceiling must bind before 20 threads.
	if rows[len(rows)-1].QPS > Skylake.MemBWGBs*1e9/3e8+1e-9 {
		t.Errorf("bandwidth ceiling not applied")
	}
}

func TestFig10AutoVecOnlyPartialGains(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	rows := Fig10(db, Skylake)
	for _, r := range rows {
		if r.InstrReduction <= 0 || r.InstrReduction >= 0.7 {
			t.Errorf("%s instruction reduction %.2f out of plausible range", r.Query, r.InstrReduction)
		}
		if r.TimeReduction >= r.InstrReduction {
			t.Errorf("%s time reduction (%.2f) should trail instruction reduction (%.2f)",
				r.Query, r.TimeReduction, r.InstrReduction)
		}
	}
}

// tpchLikeSSB builds a small SSB database without importing internal/ssb
// in this package's non-test code.
func tpchLikeSSB(t *testing.T) *dbType {
	t.Helper()
	return ssbGen(0.02)
}
