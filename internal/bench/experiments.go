package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"paradigms/internal/hashtable"
	"paradigms/internal/iosim"
	"paradigms/internal/microsim"
	"paradigms/internal/queries"
	"paradigms/internal/registry"
	"paradigms/internal/simd"
	"paradigms/internal/ssb"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
)

// Config controls experiment scale.
type Config struct {
	SF      float64 // TPC-H scale factor (Fig 3/5, Tables 1/2)
	SSBSF   float64 // SSB scale factor
	Threads int     // max threads for Table 3
	Reps    int     // timing repetitions (best-of)
}

// DefaultConfig scales the paper's setup to a laptop-class machine.
func DefaultConfig() Config {
	return Config{SF: 1, SSBSF: 1, Threads: 0, Reps: 3}
}

// timeQuery measures the best-of-reps wall clock of one query run.
func timeQuery(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	f() // warmup
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// Run executes one named query on one engine through the named-query
// table (internal/registry): its hand-written kernel where the table
// lists one, its canonical SQL text through the shared driver otherwise.
// The harness only runs names the table lists, so an error is a wiring
// bug and panics.
func Run(db *storage.Database, engine, query string, threads, vec int) {
	if _, err := registry.Run(context.Background(), db, engine, query, threads, vec); err != nil {
		panic("bench: " + err.Error())
	}
}

// Fig3 reproduces Figure 3: single-threaded TPC-H runtimes.
func Fig3(db *storage.Database, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — TPC-H SF=%g, 1 thread (runtimes in ms)\n", db.ScaleFactor)
	fmt.Fprintf(&b, "%-5s %12s %12s %10s | %-22s\n", "query", "Typer", "Tectorwise", "ratio", "paper (SF1): Typer / TW")
	for _, q := range queries.TPCHQueries {
		ty := timeQuery(cfg.Reps, func() { Run(db, "typer", q, 1, 0) })
		tww := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", q, 1, 0) })
		p := PaperFig3[q]
		fmt.Fprintf(&b, "%-5s %10.1fms %10.1fms %10.2f | %.0f / %.0f (ratio %.2f)\n",
			q, ms(ty), ms(tww), ms(ty)/ms(tww), p.Typer, p.TW, p.Typer/p.TW)
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Table1Text reproduces Table 1 via the micro-architectural simulator.
func Table1Text(db *storage.Database) string {
	rows := microsim.Table1(db, microsim.Skylake)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — modeled CPU counters per tuple (TPC-H SF=%g, 1 thread)\n", db.ScaleFactor)
	fmt.Fprintf(&b, "%-14s %7s %5s %7s %7s %8s %7s | paper: cyc IPC instr L1 LLC br\n",
		"engine/query", "cycles", "IPC", "instr", "L1miss", "LLCmiss", "brMiss")
	for _, r := range rows {
		key := r.Engine + "/" + r.Query
		p := PaperTable1[key]
		fmt.Fprintf(&b, "%-14s %7.1f %5.2f %7.1f %7.2f %8.3f %7.3f | %g %g %g %g %g %g\n",
			key, r.Cycles, r.IPC, r.Instr, r.L1Miss, r.LLCMiss, r.BranchMiss,
			p.Cycles, p.IPC, p.Instr, p.L1Miss, p.LLCMiss, p.BranchMiss)
	}
	return b.String()
}

// Fig4Text reproduces Figure 4: memory-stall share vs. scale factor.
func Fig4Text(sfs []float64) string {
	rows := microsim.Fig4(func(sf float64) *storage.Database {
		return tpch.Generate(sf, 0)
	}, microsim.Skylake, sfs)
	var b strings.Builder
	b.WriteString("Figure 4 — modeled memory-stall cycles/tuple vs. scale factor\n")
	fmt.Fprintf(&b, "%-5s %-11s %8s %12s %12s\n", "query", "engine", "SF", "cycles/t", "stall/t")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-11s %8.2f %12.1f %12.1f\n",
			r.Query, r.Engine, r.ScaleFactor, r.CyclesPerTuple, r.StallPerTuple)
	}
	b.WriteString("(paper: stalls grow with SF; Tectorwise hides more of them on the join queries)\n")
	return b.String()
}

// Fig5Text reproduces Figure 5: Tectorwise runtime vs. vector size.
func Fig5Text(db *storage.Database, cfg Config) string {
	sizes := []int{1, 16, 256, 1024, 4096, 65536, 1 << 20}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — Tectorwise vector-size sweep (SF=%g, 1 thread, time relative to 1K)\n", db.ScaleFactor)
	fmt.Fprintf(&b, "%-5s", "query")
	for _, s := range sizes {
		fmt.Fprintf(&b, "%9d", s)
	}
	b.WriteString("\n")
	for _, q := range queries.TPCHQueries {
		baseline := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", q, 1, 1024) })
		fmt.Fprintf(&b, "%-5s", q)
		for _, s := range sizes {
			d := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", q, 1, s) })
			fmt.Fprintf(&b, "%9.2f", float64(d)/float64(baseline))
		}
		b.WriteString("\n")
	}
	b.WriteString("(" + PaperFig5Note + ")\n")
	return b.String()
}

// SSBText reproduces the §4.4 SSB table: measured runtimes plus modeled
// counters.
func SSBText(db *storage.Database, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SSB (§4.4) — SF=%g: measured 1-thread runtime + modeled counters\n", db.ScaleFactor)
	fmt.Fprintf(&b, "%-14s %9s %7s %5s %7s %7s %8s %8s | paper: cyc instr memstall\n",
		"engine/query", "time", "cycles", "IPC", "instr", "L1miss", "brMiss", "memStall")
	for _, q := range queries.SSBQueries {
		for _, eng := range []string{"typer", "tectorwise"} {
			d := timeQuery(cfg.Reps, func() { Run(db, eng, q, 1, 0) })
			ctr := microsim.TracedSSB(db, microsim.Skylake, eng, q)
			p := PaperSSBTable[eng+"/"+q]
			fmt.Fprintf(&b, "%-14s %7.0fms %7.1f %5.2f %7.1f %7.2f %8.3f %8.1f | %g %g %g\n",
				eng+"/"+q, ms(d), ctr.Cycles, ctr.IPC, ctr.Instr, ctr.L1Miss,
				ctr.BranchMiss, ctr.MemStall, p.Cycles, p.Instr, p.MemStall)
		}
	}
	return b.String()
}

// Table2Text reproduces Table 2: our engines next to the paper's
// production-system numbers.
func Table2Text(db *storage.Database, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — production systems (paper, SF1 ms) vs this repo (SF=%g)\n", db.ScaleFactor)
	fmt.Fprintf(&b, "%-5s %8s %8s %8s %8s | %10s %10s\n",
		"query", "HyPer", "VW", "Typer*", "TW*", "Typer(ms)", "TW(ms)")
	for _, q := range queries.TPCHQueries {
		p := PaperTable2[q]
		ty := timeQuery(cfg.Reps, func() { Run(db, "typer", q, 1, 0) })
		tww := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", q, 1, 0) })
		fmt.Fprintf(&b, "%-5s %8.0f %8.0f %8.0f %8.0f | %10.1f %10.1f\n",
			q, p.HyPer, p.VectorWise, p.Typer, p.TW, ms(ty), ms(tww))
	}
	b.WriteString("(* = paper's Typer/Tectorwise; shape check: Typer tracks HyPer, TW tracks VectorWise)\n")
	return b.String()
}

// Table3Text reproduces Table 3: multi-threaded execution and the
// engine-ratio convergence under hyper-threading.
func Table3Text(db *storage.Database, threadSteps []int, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — multi-threaded TPC-H SF=%g (paper: SF100 on 10c/20t Skylake)\n", db.ScaleFactor)
	fmt.Fprintf(&b, "%-5s %4s %12s %8s %12s %8s %7s\n",
		"query", "thr", "Typer", "speedup", "TW", "speedup", "ratio")
	for _, q := range queries.TPCHQueries {
		var ty1, tw1 time.Duration
		for _, thr := range threadSteps {
			ty := timeQuery(cfg.Reps, func() { Run(db, "typer", q, thr, 0) })
			tww := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", q, thr, 0) })
			if thr == threadSteps[0] {
				ty1, tw1 = ty, tww
			}
			fmt.Fprintf(&b, "%-5s %4d %10.1fms %8.1f %10.1fms %8.1f %7.2f\n",
				q, thr, ms(ty), float64(ty1)/float64(ty), ms(tww), float64(tw1)/float64(tww),
				float64(ty)/float64(tww))
		}
	}
	b.WriteString("(paper: ratio moves toward 1 at 20 hyper-threads for all but Q6)\n")
	return b.String()
}

// Fig6Text reproduces Figure 6: scalar vs. data-parallel selection,
// measured — the portable Go SWAR/unrolled kernels and, on a CPU with
// AVX-512, the assembly range kernels both engines filter with.
func Fig6Text(cfg Config) string {
	const n = 8192
	data := make([]int32, n)
	rng := rand.New(rand.NewSource(42))
	for i := range data {
		data[i] = int32(rng.Intn(1000))
	}
	bound := int32(400) // 40% selectivity
	out := make([]int32, n)
	reps := 20000
	scalar := timeQuery(cfg.Reps, func() {
		for r := 0; r < reps; r++ {
			simd.SelectPredicated(data, bound, out)
		}
	})
	swar := timeQuery(cfg.Reps, func() {
		for r := 0; r < reps; r++ {
			simd.SelectSWAR(data, bound, out)
		}
	})
	sel := make([]int32, 0, n)
	for i := 0; i < n; i += 2 { // ~40% after compose with random data
		if rng.Intn(5) < 4 {
			sel = append(sel, int32(i))
		}
	}
	sparseScalar := timeQuery(cfg.Reps, func() {
		for r := 0; r < reps; r++ {
			simd.SelectSparsePredicated(data, bound, sel, out)
		}
	})
	sparseUnrolled := timeQuery(cfg.Reps, func() {
		for r := 0; r < reps; r++ {
			simd.SelectSparseUnrolled(data, bound, sel, out)
		}
	})

	var b strings.Builder
	b.WriteString("Figure 6 — scalar vs data-parallel selection\n")
	fmt.Fprintf(&b, "measured (Go SWAR/unroll):   dense %0.2fx   sparse %0.2fx\n",
		float64(scalar)/float64(swar), float64(sparseScalar)/float64(sparseUnrolled))
	if simd.AVX512() {
		// data < bound is the range [MinInt32, bound-1].
		dense := timeQuery(cfg.Reps, func() {
			for r := 0; r < reps; r++ {
				simd.SelectRange(data, math.MinInt32, bound-1, out)
			}
		})
		sparse := timeQuery(cfg.Reps, func() {
			for r := 0; r < reps; r++ {
				simd.SelectRangeSparse(data, math.MinInt32, bound-1, sel, out)
			}
		})
		fmt.Fprintf(&b, "measured (AVX-512 asm):      dense %0.2fx   sparse %0.2fx\n",
			float64(scalar)/float64(dense), float64(sparseScalar)/float64(sparse))
	} else {
		b.WriteString("measured (AVX-512 asm):      not run, this CPU has no AVX-512\n")
	}
	fmt.Fprintf(&b, "paper    (AVX-512):          dense %0.1fx   sparse %0.1fx   full Q6 %0.1fx\n",
		PaperFig6.Dense, PaperFig6.Sparse, PaperFig6.Q6)
	return b.String()
}

// Fig7Text reproduces Figure 7: sparse selection vs. input selectivity.
func Fig7Text() string {
	rows := microsim.Fig7(microsim.Skylake, 256<<20,
		[]float64{1.0, 0.8, 0.6, 0.4, 0.2})
	var b strings.Builder
	b.WriteString("Figure 7 — modeled sparse selection on a 256 MB array\n")
	fmt.Fprintf(&b, "%12s %14s %14s %14s\n", "input sel", "scalar cyc", "SIMD cyc", "L1miss cyc")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11.0f%% %14.2f %14.2f %14.2f\n",
			r.InputSelectivity*100, r.ScalarCycles, r.SIMDCycles, r.L1MissCycles)
	}
	b.WriteString("(paper: below ~50% selectivity the memory system dominates and SIMD gains vanish)\n")
	return b.String()
}

// Fig8Text reproduces Figure 8: SIMD join probing components + full query.
func Fig8Text(db *storage.Database, cfg Config) string {
	const n = 8192
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 7)
	}
	hout := make([]uint64, n)
	reps := 10000
	hs := timeQuery(cfg.Reps, func() {
		for r := 0; r < reps; r++ {
			simd.HashScalar(keys, hout)
		}
	})
	hu := timeQuery(cfg.Reps, func() {
		for r := 0; r < reps; r++ {
			simd.HashUnrolled(keys, hout)
		}
	})
	// Probe kernel against an L2-resident table.
	ht := hashtable.New(1, 1)
	sh := ht.Shard(0)
	for i := uint64(0); i < 1<<14; i++ {
		ref, _ := sh.Alloc(ht, hashtable.Murmur2(i))
		ht.SetWord(ref, 0, i)
	}
	ht.Finalize()
	probeKeys := make([]uint64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range probeKeys {
		probeKeys[i] = uint64(rng.Intn(1 << 15))
	}
	matches := make([]int32, n)
	ps := timeQuery(cfg.Reps, func() {
		for r := 0; r < 2000; r++ {
			simd.ProbeScalar(ht, probeKeys, matches)
		}
	})
	pu := timeQuery(cfg.Reps, func() {
		for r := 0; r < 2000; r++ {
			simd.ProbeUnrolled(ht, probeKeys, matches)
		}
	})
	hModel := microsim.Hashing(microsim.Skylake, n)
	gModel := microsim.GatherKernel(microsim.Skylake, 256<<20, 4096)

	var b strings.Builder
	b.WriteString("Figure 8 — scalar vs data-parallel join probing\n")
	fmt.Fprintf(&b, "measured (Go): hashing %0.2fx   probe %0.2fx\n",
		float64(hs)/float64(hu), float64(ps)/float64(pu))
	fmt.Fprintf(&b, "modeled (AVX-512): hashing %0.1fx   gather %0.2fx\n",
		hModel.Speedup, gModel.Speedup)
	fmt.Fprintf(&b, "paper: hashing %0.1fx  gather %0.1fx  probe %0.1fx  full Q3/Q9 ≈%0.1fx\n",
		PaperFig8.Hash, PaperFig8.Gather, PaperFig8.Probe, PaperFig8.Q3)
	return b.String()
}

// Fig9Bitmaps are the key-bitmap sizes in bytes Figure 9 probes: from
// L2-resident to far past the last-level cache.
var Fig9Bitmaps = []int{128 << 10, 512 << 10, 4 << 20, 32 << 20, 256 << 20}

// Fig9Text reproduces Figure 9, measured: the key-membership probe
// both engines stage (simd.SelectMembers, AVX-512 gather-test-compress)
// against its Go loop over 8192 random keys, at bitmap sizes from
// 128 KB up to maxBytes (the paper sweeps to 256 MB). The paper's
// claim is that the SIMD gain holds only while the structure the
// gathers read is cache resident.
func Fig9Text(cfg Config, maxBytes int) string {
	const n = 8192
	keys, out := make([]int32, n), make([]int32, n)
	rng := rand.New(rand.NewSource(9))
	var b strings.Builder
	b.WriteString("Figure 9 — measured key-membership probe vs bitmap size\n")
	fmt.Fprintf(&b, "%10s %12s %16s %8s\n", "bitmap", "Go ns/key", "AVX-512 ns/key", "gain")
	for _, size := range Fig9Bitmaps {
		if size > maxBytes {
			break
		}
		words := make([]uint64, size/8)
		for i := range words {
			words[i] = rng.Uint64() // about half the keys are members
		}
		set := simd.BitmapSet(words, 0)
		for i := range keys {
			keys[i] = int32(rng.Intn(8 * size))
		}
		const reps = 100
		perKey := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / (reps * n) }
		scalar := perKey(timeQuery(cfg.Reps, func() {
			for r := 0; r < reps; r++ {
				simd.SelectMembersGo(keys, set, out)
			}
		}))
		if !simd.AVX512() {
			fmt.Fprintf(&b, "%8dKB %12.2f %16s %8s\n", size>>10, scalar, "-", "-")
			continue
		}
		kernel := perKey(timeQuery(cfg.Reps, func() {
			for r := 0; r < reps; r++ {
				simd.SelectMembers(keys, set, out)
			}
		}))
		fmt.Fprintf(&b, "%8dKB %12.2f %16.2f %7.2fx\n", size>>10, scalar, kernel, scalar/kernel)
	}
	if !simd.AVX512() {
		b.WriteString("AVX-512 kernel: not run, this CPU has no AVX-512\n")
	}
	b.WriteString("(paper: gains only while the table is cache resident)\n")
	return b.String()
}

// Fig10Text reproduces Figure 10: modeled auto-vectorization effect.
func Fig10Text(db *storage.Database) string {
	rows := microsim.Fig10(db, microsim.Skylake)
	var b strings.Builder
	b.WriteString("Figure 10 — modeled compiler auto-vectorization (ICC-like: hash/sel/proj only)\n")
	fmt.Fprintf(&b, "%-5s %18s %16s\n", "query", "instr reduction", "time reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %17.0f%% %15.1f%%\n",
			r.Query, r.InstrReduction*100, r.TimeReduction*100)
	}
	b.WriteString("(paper: 20-60% fewer instructions, no significant runtime gain)\n")
	return b.String()
}

// Table4Text prints the hardware profiles (Table 4).
func Table4Text() string {
	var b strings.Builder
	b.WriteString("Table 4 — modeled hardware platforms\n")
	fmt.Fprintf(&b, "%-14s %-10s %6s %6s %6s %8s %8s %8s %7s\n",
		"name", "model", "cores", "issue", "SIMD", "L1", "L2", "LLC", "$")
	for _, hw := range microsim.Platforms {
		fmt.Fprintf(&b, "%-14s %-10s %3d(x%d) %6d %4dx32 %7dK %7dK %7dM %7d\n",
			hw.Name, hw.Model, hw.Cores, hw.SMTWays, hw.IssueWidth, hw.SIMDLanes32,
			hw.L1Size>>10, hw.L2Size>>10, hw.LLCSize>>20, hw.PriceUSD)
	}
	return b.String()
}

// FigHWText reproduces Figures 11/12: modeled queries/second scaling
// curves per platform, optionally with the SIMD model enabled (Fig 12's
// "KNL with SIMD" series).
func FigHWText(db *storage.Database, platforms []microsim.HW, withSIMD bool) string {
	var b strings.Builder
	b.WriteString("Figures 11/12 — modeled queries/second vs cores\n")
	for _, hw := range platforms {
		for _, q := range queries.TPCHQueries {
			bytes := float64(iosim.ColumnBytes(db, queries.ScannedTables[q]))
			for _, eng := range []string{"typer", "tectorwise"} {
				ctr := microsim.TracedTPCH(db, hw, eng, q)
				cycles := ctr.Cycles * float64(db.TotalTuples(queries.ScannedTables[q]...))
				simdGain := 1.0
				if withSIMD && eng == "tectorwise" {
					simdGain = 1.1 + 0.3*float64(hw.SIMDLanes32)/16 // modest full-query gain (§5.4)
				}
				rows := microsim.Throughput(hw, eng, q, cycles, bytes, withSIMD, simdGain)
				// Print quartile points to keep the table readable.
				for _, idx := range []int{0, len(rows) / 2, len(rows) - 1} {
					r := rows[idx]
					fmt.Fprintf(&b, "%-13s %-11s %-4s cores=%3d (%3.0f%%) %10.2f q/s\n",
						hw.Name, r.Engine, r.Query, r.Cores, r.FracCores*100, r.QPS)
				}
			}
		}
	}
	return b.String()
}

// Table5Text reproduces Table 5: out-of-memory execution from throttled
// storage.
func Table5Text(db *storage.Database, dir string, cfg Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5 — SSD (%.1f GB/s) at SF=%g, %d threads (pipelined model)\n",
		iosim.PaperSSDBandwidth/1e9, db.ScaleFactor, cfg.Threads)
	fmt.Fprintf(&b, "%-5s %12s %12s %7s | paper: Typer TW ratio\n", "query", "Typer", "TW", "ratio")
	for _, q := range queries.TPCHQueries {
		scanBytes := iosim.ColumnBytes(db, queries.ScannedTables[q])
		ty := timeQuery(cfg.Reps, func() { Run(db, "typer", q, cfg.Threads, 0) })
		tww := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", q, cfg.Threads, 0) })
		tySSD := iosim.Table5Time(ty, scanBytes, iosim.PaperSSDBandwidth)
		twSSD := iosim.Table5Time(tww, scanBytes, iosim.PaperSSDBandwidth)
		p := PaperTable5[q]
		fmt.Fprintf(&b, "%-5s %10.1fms %10.1fms %7.2f | %.0f %.0f %.2f\n",
			q, ms(tySSD), ms(twSSD), ms(tySSD)/ms(twSSD), p.Typer, p.TW, p.Typer/p.TW)
	}
	_ = dir
	return b.String()
}

// Table6Text prints the taxonomy.
func Table6Text() string {
	var b strings.Builder
	b.WriteString("Table 6 — query processing models\n")
	fmt.Fprintf(&b, "%-24s %-12s %-15s %s\n", "system", "pipelining", "execution", "year")
	for _, r := range Table6 {
		fmt.Fprintf(&b, "%-24s %-12s %-15s %d\n", r.System, r.Pipelining, r.Execution, r.Year)
	}
	return b.String()
}

// EC2Text reproduces the §6.2 price-per-query observation.
func EC2Text() string {
	var b strings.Builder
	b.WriteString("§6.2 — EC2 price per query (paper's measurements, cost model)\n")
	for _, e := range EC2 {
		perQuery := e.PricePerH / 3600 * e.GeomeanMS / 1000
		fmt.Fprintf(&b, "%-13s %2d vCPUs  $%.3f/h  geomean %4.0fms  → $%.6f/query\n",
			e.Instance, e.VCPUs, e.PricePerH, e.GeomeanMS, perQuery)
	}
	b.WriteString("(4x faster costs 1.7x more per query)\n")
	return b.String()
}

// SSBGen builds an SSB database (re-exported so cmd/repro needs only this
// package).
func SSBGen(sf float64) *storage.Database { return ssb.Generate(sf, 0) }

// TPCHGen builds a TPC-H database.
func TPCHGen(sf float64) *storage.Database { return tpch.Generate(sf, 0) }

// SortedExperimentNames lists everything cmd/repro can run.
func SortedExperimentNames() []string {
	names := []string{"fig3", "table1", "fig4", "fig5", "ssb", "table2",
		"fig6", "fig7", "fig8", "fig9", "fig10", "table3", "table4",
		"table5", "fig11", "fig12", "table6", "ec2", "compile",
		"profiling", "adaptivity", "oltp", "ablation"}
	sort.Strings(names)
	return names
}
