package microsim

import (
	"unsafe"

	"paradigms/internal/storage"
)

// SIMD lane model (DESIGN.md S3): Figure 6's selections are measured on
// the AVX-512 kernels of internal/simd; the data-parallel experiments of
// Figures 7–10, which this repo has no AVX-512 kernels for, are
// reproduced by executing
// the kernels' memory behavior through the cache model while charging
// instruction cost at SIMD granularity: one vector operation per
// ceil(n/lanes) elements, with gathers bounded by the two-loads-per-cycle
// limit of the memory pipeline — the constraint the paper identifies as
// the reason SIMD gathers gain only ~1.1× (§5.2).

// SIMDKernelResult reports modeled cycles per element for a kernel in
// scalar and SIMD variants.
type SIMDKernelResult struct {
	Name         string
	ScalarCycles float64
	SIMDCycles   float64
	Speedup      float64
}

// kernelCPU runs f on a fresh CPU and returns cycles per element.
func kernelCPU(hw HW, elems int, warm func(c *CPU), f func(c *CPU)) float64 {
	c := NewCPU(hw)
	if warm != nil {
		warm(c)
	}
	c.Reset2()
	f(c)
	return float64(c.Cycles()) / float64(elems)
}

// Reset2 clears counters but keeps cache contents (for warmed kernels).
func (c *CPU) Reset2() {
	c.Instructions = 0
	c.Loads = 0
	c.Stores = 0
	c.MemStallCycles = 0
	c.BranchStallCycles = 0
	c.BP.Branches = 0
	c.BP.Misses = 0
	c.L1.Accesses = 0
	c.L1.Misses = 0
	c.L2.Accesses = 0
	c.L2.Misses = 0
	c.LLC.Accesses = 0
	c.LLC.Misses = 0
	c.groupSize = 0
	c.groupBroken = false
}

// Hashing models Figure 8a: Murmur2 over a dense key vector.
func Hashing(hw HW, n int) SIMDKernelResult {
	keys := make([]uint64, n)
	out := make([]uint64, n)
	warm := func(c *CPU) {
		for i := range keys {
			c.Load(unsafe.Pointer(&keys[i]), 8)
			c.Load(unsafe.Pointer(&out[i]), 8)
		}
	}
	scalar := kernelCPU(hw, n, warm, func(c *CPU) {
		for i := 0; i < n; i++ {
			c.Ops(loopOps + HashOpsTW)
			c.Load(unsafe.Pointer(&keys[i]), 8)
			c.Store(unsafe.Pointer(&out[i]), 8)
		}
	})
	lanes := hw.SIMDLanes32 / 2 // 64-bit lanes
	simd := kernelCPU(hw, n, warm, func(c *CPU) {
		for i := 0; i < n; i += lanes {
			c.Ops(HashOpsTW) // one vector op per scalar op
			c.Load(unsafe.Pointer(&keys[i]), 8*lanes)
			c.Store(unsafe.Pointer(&out[i]), 8*lanes)
		}
	})
	return SIMDKernelResult{Name: "hashing", ScalarCycles: scalar,
		SIMDCycles: simd, Speedup: scalar / simd}
}

// GatherKernel models Figure 8b: random gathers from a working set of
// the given size. SIMD gathers cannot exceed the 2-loads-per-cycle
// memory pipeline, so the gain shrinks to ~1.1×.
func GatherKernel(hw HW, workingSet, n int) SIMDKernelResult {
	words := workingSet / 8
	table := make([]uint64, words)
	idx := make([]int32, n)
	state := uint64(1)
	for i := range idx {
		state = state*6364136223846793005 + 1442695040888963407
		idx[i] = int32(state % uint64(words))
	}
	out := make([]uint64, n)
	scalar := kernelCPU(hw, n, nil, func(c *CPU) {
		for i := 0; i < n; i++ {
			c.Ops(loopOps + 1)
			c.Load(unsafe.Pointer(&idx[i]), 4)
			c.Load(unsafe.Pointer(&table[idx[i]]), 8)
			c.Store(unsafe.Pointer(&out[i]), 8)
		}
	})
	lanes := hw.SIMDLanes32 / 2
	simd := kernelCPU(hw, n, nil, func(c *CPU) {
		for i := 0; i < n; i += lanes {
			c.Ops(2)
			c.Load(unsafe.Pointer(&idx[i]), 4*lanes)
			c.Ops(lanes / 2) // gather port pressure: 2 loads/cycle
			end := i + lanes
			if end > n {
				end = n
			}
			for j := i; j < end; j++ {
				c.Load(unsafe.Pointer(&table[idx[j]]), 8)
			}
			c.Store(unsafe.Pointer(&out[i]), 8*lanes)
		}
	})
	return SIMDKernelResult{Name: "gather", ScalarCycles: scalar,
		SIMDCycles: simd, Speedup: scalar / simd}
}

// Fig7Row is one point of the Figure 7 sparse-selection sweep.
type Fig7Row struct {
	InputSelectivity float64
	ScalarCycles     float64
	SIMDCycles       float64
	L1MissCycles     float64
}

// Fig7 sweeps input selectivity for a selection with a selection vector
// over a large (out-of-cache) array; as selectivity drops, strides grow
// and the memory system dominates, erasing the SIMD gain.
func Fig7(hw HW, arrayBytes int, sels []float64) []Fig7Row {
	n := arrayBytes / 4
	data := make([]int32, n)
	rows := make([]Fig7Row, 0, len(sels))
	for _, sel := range sels {
		step := int(1 / sel)
		if step < 1 {
			step = 1
		}
		count := n / step
		// Scalar pass.
		c := NewCPU(hw)
		for i := 0; i < count; i++ {
			c.Ops(loopOps + 2)
			c.Load(unsafe.Pointer(&data[i*step]), 4)
		}
		scalar := float64(c.Cycles()) / float64(count)
		stall := float64(c.MemStallCycles) / float64(count)
		// SIMD pass: same memory behavior, vector-width ALU.
		c2 := NewCPU(hw)
		lanes := hw.SIMDLanes32
		for i := 0; i < count; i += lanes {
			c2.Ops(3 + lanes/2)
			end := i + lanes
			if end > count {
				end = count
			}
			for j := i; j < end; j++ {
				c2.Load(unsafe.Pointer(&data[j*step]), 4)
			}
		}
		simd := float64(c2.Cycles()) / float64(count)
		rows = append(rows, Fig7Row{InputSelectivity: sel,
			ScalarCycles: scalar, SIMDCycles: simd, L1MissCycles: stall})
	}
	return rows
}

// AutoVecRow is one bar pair of Figure 10: the instruction and time
// reduction achieved by compiler auto-vectorization, which vectorized
// hashing, selection, and projection primitives but not probing or
// aggregation.
type AutoVecRow struct {
	Query          string
	InstrReduction float64 // fraction of instructions removed
	TimeReduction  float64 // fraction of cycles removed
}

// Fig10 estimates auto-vectorization gains per query from the traced
// instruction mix: vectorizable primitive classes (hash, selection,
// projection) shrink by the lane factor; memory stalls are untouched.
func Fig10(db *storage.Database, hw HW) []AutoVecRow {
	// Fractions of TW instructions in vectorizable primitives, derived
	// from the primitive mix of each query's plan (hash+sel+proj heavy
	// for Q1/Q6, probe-dominated for the join queries).
	vecFraction := map[string]float64{
		"Q1": 0.45, "Q6": 0.60, "Q3": 0.30, "Q9": 0.25, "Q18": 0.35,
	}
	lanes := float64(hw.SIMDLanes32)
	var rows []AutoVecRow
	for _, q := range []string{"Q1", "Q6", "Q3", "Q9", "Q18"} {
		ctr := TracedTPCH(db, hw, "tectorwise", q)
		f := vecFraction[q]
		instrBefore := ctr.Instr
		instrAfter := instrBefore * (1 - f + f/lanes)
		cyclesBefore := ctr.Cycles
		// Only the issue-bound portion shrinks; stalls stay.
		issue := (instrBefore - 0) / float64(hw.IssueWidth)
		issueAfter := instrAfter / float64(hw.IssueWidth)
		cyclesAfter := cyclesBefore - (issue - issueAfter)
		if cyclesAfter < 0 {
			cyclesAfter = 0
		}
		rows = append(rows, AutoVecRow{
			Query:          q,
			InstrReduction: 1 - instrAfter/instrBefore,
			TimeReduction:  1 - cyclesAfter/cyclesBefore,
		})
	}
	return rows
}

// ThroughputRow is one point of the Figure 11/12 queries-per-second
// curves.
type ThroughputRow struct {
	HW        string
	Engine    string
	Query     string
	Cores     int
	FracCores float64
	QPS       float64
}

// Throughput models queries/second as a function of active cores for one
// hardware profile (Figures 11 and 12): per-core throughput comes from
// the modeled single-core cycle count at the profile's clock; scaling is
// linear in cores up to the memory-bandwidth ceiling; SMT adds the
// profile's boost beyond physical cores. bytesPerQuery is the scanned
// column volume (bandwidth ceiling); cyclesPerQuery the modeled
// single-core cost.
func Throughput(hw HW, engine, query string, cyclesPerQuery, bytesPerQuery float64, withSIMD bool, simdGain float64) []ThroughputRow {
	var rows []ThroughputRow
	cycles := cyclesPerQuery
	if withSIMD {
		cycles /= simdGain
	}
	corePerf := hw.ClockGHz * 1e9 / cycles // queries/s on one core
	bwCap := hw.MemBWGBs * 1e9 / bytesPerQuery
	steps := hw.Cores * hw.SMTWays
	for active := 1; active <= steps; active++ {
		phys := float64(active)
		if active > hw.Cores {
			phys = float64(hw.Cores) + float64(active-hw.Cores)*(hw.SMTBoost-1)
		}
		qps := corePerf * phys
		if qps > bwCap {
			qps = bwCap
		}
		rows = append(rows, ThroughputRow{
			HW: hw.Name, Engine: engine, Query: query,
			Cores: active, FracCores: float64(active) / float64(steps), QPS: qps,
		})
	}
	return rows
}
