package paradigms

// One benchmark per table/figure of the paper (see DESIGN.md §4 for the
// experiment index). Benchmarks default to SF 0.1 so `go test -bench=.`
// finishes quickly; cmd/repro runs the full-scale versions.

import (
	"math/rand"
	"sync"
	"testing"

	"context"

	"paradigms/internal/bench"
	"paradigms/internal/engine"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/iosim"
	"paradigms/internal/logical"
	"paradigms/internal/microsim"
	"paradigms/internal/plan"
	"paradigms/internal/queries"
	"paradigms/internal/simd"
	"paradigms/internal/tw"
	"paradigms/internal/typer"
	"paradigms/internal/vector"
)

const benchSF = 0.1

var (
	benchOnce  sync.Once
	benchTPCH  *DB
	benchSSBDB *DB
	benchSimDB *DB
)

func benchDBs() (*DB, *DB, *DB) {
	benchOnce.Do(func() {
		benchTPCH = GenerateTPCH(benchSF, 0)
		benchSSBDB = GenerateSSB(benchSF, 0)
		benchSimDB = GenerateTPCH(0.05, 0)
	})
	return benchTPCH, benchSSBDB, benchSimDB
}

// BenchmarkFig3 — Figure 3: single-threaded TPC-H runtimes, both engines.
func BenchmarkFig3(b *testing.B) {
	db, _, _ := benchDBs()
	for _, q := range queries.TPCHQueries {
		for _, eng := range []string{"typer", "tectorwise"} {
			b.Run(eng+"/"+q, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bench.Run(db, eng, q, 1, 0)
				}
			})
		}
	}
}

// BenchmarkTable1Counters — Table 1: the traced-twin simulation cost.
func BenchmarkTable1Counters(b *testing.B) {
	_, _, sim := benchDBs()
	for _, eng := range []string{"typer", "tectorwise"} {
		b.Run(eng+"/Q1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microsim.TracedTPCH(sim, microsim.Skylake, eng, "Q1")
			}
		})
	}
}

// BenchmarkFig4MemoryStalls — Figure 4: stall accounting across SFs is
// exercised on the join query most sensitive to hash-table growth.
func BenchmarkFig4MemoryStalls(b *testing.B) {
	_, _, sim := benchDBs()
	for i := 0; i < b.N; i++ {
		microsim.TracedTPCH(sim, microsim.Skylake, "tectorwise", "Q3")
	}
}

// BenchmarkFig5VectorSize — Figure 5: Tectorwise Q3 across vector sizes.
func BenchmarkFig5VectorSize(b *testing.B) {
	db, _, _ := benchDBs()
	for _, size := range []int{1, 64, 1024, 65536, 1 << 20} {
		b.Run(benchName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.Run(db, engine.Tectorwise, "Q3", 1, size)
			}
		})
	}
}

func benchName(size int) string {
	switch {
	case size >= 1<<20:
		return "max"
	default:
		return itoa(size)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkSSB — §4.4: the four SSB queries on both engines.
func BenchmarkSSB(b *testing.B) {
	_, db, _ := benchDBs()
	for _, q := range queries.SSBQueries {
		for _, eng := range []string{"typer", "tectorwise"} {
			b.Run(eng+"/"+q, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bench.Run(db, eng, q, 1, 0)
				}
			})
		}
	}
}

// BenchmarkTable2 — Table 2's measured side (same single-threaded runs
// as Fig. 3; the paper-reference comparison is printed by cmd/repro).
func BenchmarkTable2(b *testing.B) {
	db, _, _ := benchDBs()
	b.Run("typer/Q18", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			typer.Q18Ctx(context.Background(), db, 1)
		}
	})
	b.Run("tectorwise/Q18", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.Q18Ctx(context.Background(), db, 1, 0)
		}
	})
}

// BenchmarkFig6Selection — Figure 6: selection kernel variants.
func BenchmarkFig6Selection(b *testing.B) {
	const n = 8192
	data := make([]int32, n)
	rng := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = int32(rng.Intn(1000))
	}
	out := make([]int32, n)
	bound := int32(400)
	b.Run("branching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.SelectBranching(data, bound, out)
		}
	})
	b.Run("predicated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.SelectPredicated(data, bound, out)
		}
	})
	b.Run("swar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.SelectSWAR(data, bound, out)
		}
	})
}

// BenchmarkFig7SparseSelection — Figure 7: secondary selection kernels.
func BenchmarkFig7SparseSelection(b *testing.B) {
	const n = 1 << 20
	data := make([]int32, n)
	rng := rand.New(rand.NewSource(2))
	for i := range data {
		data[i] = int32(rng.Intn(1000))
	}
	sel := make([]int32, 0, n/2)
	for i := 0; i < n; i += 2 {
		sel = append(sel, int32(i))
	}
	out := make([]int32, n)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.SelectSparsePredicated(data, 400, sel, out)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.SelectSparseUnrolled(data, 400, sel, out)
		}
	})
}

// BenchmarkFig8Hashing / Gather / Probe — Figure 8 components.
func BenchmarkFig8Hashing(b *testing.B) {
	keys := make([]uint64, 8192)
	for i := range keys {
		keys[i] = uint64(i)
	}
	out := make([]uint64, len(keys))
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.HashScalar(keys, out)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.HashUnrolled(keys, out)
		}
	})
}

func fig8Table(entries int) *hashtable.Table {
	ht := hashtable.New(1, 1)
	sh := ht.Shard(0)
	for i := uint64(0); i < uint64(entries); i++ {
		ref, _ := sh.Alloc(ht, hashtable.Murmur2(i))
		ht.SetWord(ref, 0, i)
	}
	ht.Finalize()
	return ht
}

// BenchmarkFig8Probe — the Tectorwise probe primitive, scalar vs
// overlapped.
func BenchmarkFig8Probe(b *testing.B) {
	ht := fig8Table(1 << 14)
	keys := make([]uint64, 8192)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 15))
	}
	matches := make([]int32, len(keys))
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.ProbeScalar(ht, keys, matches)
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.ProbeUnrolled(ht, keys, matches)
		}
	})
}

// BenchmarkFig9WorkingSet — Figure 9: the key-membership probe the
// engines stage, AVX-512 kernel vs its Go loop, as the key bitmap
// outgrows the caches (the bitmap sizes of `repro -exp fig9`; 8 192
// random keys, about half of them members).
func BenchmarkFig9WorkingSet(b *testing.B) {
	keys, out := make([]int32, 8192), make([]int32, 8192)
	for _, size := range bench.Fig9Bitmaps {
		// Built inside the sub-benchmark, so a -bench filter that skips
		// a size does not allocate its bitmap.
		b.Run(itoa(size>>10)+"KB", func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			words := make([]uint64, size/8)
			for i := range words {
				words[i] = rng.Uint64()
			}
			set := simd.BitmapSet(words, 0)
			for i := range keys {
				keys[i] = int32(rng.Intn(8 * size))
			}
			b.Run("go", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					simd.SelectMembersGo(keys, set, out)
				}
			})
			b.Run("kernel", func(b *testing.B) {
				if !simd.AVX512() {
					b.Skip("no AVX-512 on this CPU: SelectMembers runs the Go loop")
				}
				for i := 0; i < b.N; i++ {
					simd.SelectMembers(keys, set, out)
				}
			})
		})
	}
}

// BenchmarkTable3Threads — Table 3: intra-query scaling.
func BenchmarkTable3Threads(b *testing.B) {
	db, _, _ := benchDBs()
	for _, threads := range []int{1, 2, 4} {
		b.Run("typer/Q9/"+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				typer.Q9Ctx(context.Background(), db, threads)
			}
		})
		b.Run("tectorwise/Q9/"+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tw.Q9Ctx(context.Background(), db, threads, 0)
			}
		})
	}
}

// BenchmarkTable5SSD — Table 5: throttled column streaming.
func BenchmarkTable5SSD(b *testing.B) {
	db, _, _ := benchDBs()
	dir := b.TempDir()
	if err := iosim.WriteDatabase(db, dir); err != nil {
		b.Fatal(err)
	}
	relations := queries.ScannedTables["Q6"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stream at 8 GB/s so the bench measures the streaming machinery
		// rather than sleeping at the paper's 1.4 GB/s.
		if _, _, err := iosim.StreamColumns(dir, db, relations, 8e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Fig12Model — the hardware-profile throughput model.
func BenchmarkFig11Fig12Model(b *testing.B) {
	_, _, sim := benchDBs()
	ctr := microsim.TracedTPCH(sim, microsim.Skylake, "typer", "Q6")
	cycles := ctr.Cycles * float64(sim.TotalTuples("lineitem"))
	bytes := float64(iosim.ColumnBytes(sim, []string{"lineitem"}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hw := range microsim.Platforms {
			microsim.Throughput(hw, "typer", "Q6", cycles, bytes, hw.SIMDLanes32 == 16, 1.4)
		}
	}
}

// BenchmarkCompileTime — §8.2: per-query setup cost (tiny database).
// Q3 runs its SQL text, so setup includes parse, plan and lower.
func BenchmarkCompileTime(b *testing.B) {
	db := GenerateTPCH(0.001, 0)
	for _, eng := range []string{engine.Typer, engine.Tectorwise} {
		b.Run(eng, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.Run(db, eng, "Q3", 1, 0)
			}
		})
	}
}

// BenchmarkAdaptiveAggregation — §8.4 ablation: hash vs ordered
// aggregation for Tectorwise Q1.
func BenchmarkAdaptiveAggregation(b *testing.B) {
	db, _, _ := benchDBs()
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tw.Q1Ctx(context.Background(), db, 1, 0)
		}
	})
	b.Run("ordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tw.Q1Adaptive(db, 1, 0)
		}
	})
}

// BenchmarkOLTP — §8.1: point lookups, fused vs vector-at-a-time.
func BenchmarkOLTP(b *testing.B) {
	const tableSize = 1 << 18
	buildWith := func(hf func(uint64) uint64) *hashtable.Table {
		ht := hashtable.New(2, 1)
		sh := ht.Shard(0)
		for i := uint64(0); i < tableSize; i++ {
			ref, _ := sh.Alloc(ht, hf(i))
			ht.SetWord(ref, 0, i)
			ht.SetWord(ref, 1, i*3)
		}
		ht.Finalize()
		return ht
	}
	htTyper := buildWith(hashtable.Mix64)
	htTW := buildWith(hashtable.Murmur2)
	b.Run("fused", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			key := uint64(i*2654435761) % tableSize
			h := hashtable.Mix64(key)
			for ref := htTyper.Lookup(h); ref != 0; ref = htTyper.Next(ref) {
				if htTyper.Hash(ref) == h && htTyper.Word(ref, 0) == key {
					sink += htTyper.Word(ref, 1)
					break
				}
			}
		}
		_ = sink
	})
	b.Run("vectorized-n1", func(b *testing.B) {
		keys := make([]uint64, 1)
		pr := tw.NewProber(vector.NewBuffers(1))
		mRefs := make([]hashtable.Ref, 8)
		mPos := make([]int32, 8)
		var sink uint64
		for i := 0; i < b.N; i++ {
			keys[0] = uint64(i*2654435761) % tableSize
			if pr.Probe(htTW, keys, 1, mRefs, mPos) > 0 {
				sink += htTW.Word(mRefs[0], 1)
			}
		}
		_ = sink
	})
}

// BenchmarkAblationTags — DESIGN.md ablation 1: Bloom tags on/off.
func BenchmarkAblationTags(b *testing.B) {
	ht := fig8Table(1 << 18)
	keys := make([]uint64, 8192)
	for i := range keys {
		keys[i] = uint64(i*7 + 1<<19) // mostly misses
	}
	matches := make([]int32, len(keys))
	for _, tags := range []bool{true, false} {
		name := "on"
		if !tags {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			ht.UseTags = tags
			for i := 0; i < b.N; i++ {
				simd.ProbeScalar(ht, keys, matches)
			}
		})
	}
	ht.UseTags = true
}

// BenchmarkAblationHash — DESIGN.md ablation 2: hash functions.
func BenchmarkAblationHash(b *testing.B) {
	fns := map[string]func(uint64) uint64{
		"mix64":   hashtable.Mix64,
		"murmur2": hashtable.Murmur2,
		"crc":     hashtable.CRC,
	}
	for _, name := range []string{"mix64", "murmur2", "crc"} {
		hf := fns[name]
		b.Run(name, func(b *testing.B) {
			var acc uint64
			for i := 0; i < b.N; i++ {
				acc ^= hf(uint64(i))
			}
			_ = acc
		})
	}
}

// BenchmarkAblationMorselSize — DESIGN.md ablation 6.
func BenchmarkAblationMorselSize(b *testing.B) {
	db, _, _ := benchDBs()
	ship := db.Rel("lineitem").Date("l_shipdate")
	for _, msz := range []int{1 << 10, exec.DefaultMorselSize, 1 << 21} {
		b.Run(itoa(msz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				disp := exec.NewDispatcher(len(ship), msz)
				exec.Parallel(4, func(int) {
					var sum int64
					for {
						m, ok := disp.Next()
						if !ok {
							break
						}
						for j := m.Begin; j < m.End; j++ {
							sum += int64(ship[j])
						}
					}
					_ = sum
				})
			}
		})
	}
}

// BenchmarkAblationPredication — DESIGN.md ablation 5: branching vs
// predicated selection at an adversarial (50%) selectivity.
func BenchmarkAblationPredication(b *testing.B) {
	data := make([]int32, 1<<16)
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = int32(rng.Intn(1000))
	}
	out := make([]int32, len(data))
	b.Run("branching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.SelectBranching(data, 500, out)
		}
	})
	b.Run("predicated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simd.SelectPredicated(data, 500, out)
		}
	})
}

// BenchmarkFig13Hybrid — §9.1: the relaxed-operator-fusion design point
// between the two base paradigms, on the join-heavy Q3. Every arm runs
// Q3's canonical SQL text through engine.Run; the rof arm is the generic
// per-pipeline hybrid.
func BenchmarkFig13Hybrid(b *testing.B) {
	db, _, _ := benchDBs()
	text, _ := logical.SQLText("tpch", "Q3")
	pl, err := logical.Prepare(db, text)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct{ name, engine string }{
		{"typer", engine.Typer}, {"rof", engine.Hybrid}, {"tectorwise", engine.Tectorwise},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(context.Background(), arm.engine, pl, engine.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHybridVsPure — the generic per-pipeline hybrid executor
// against both pure SQL backends on the same optimized plans: the
// cost heuristic sends build and filter-only pipelines to the fused
// backend (no materialization) and the probing final pipelines to the
// vectorized one (overlapped cache misses), so the hybrid should beat
// whichever pure engine loses each pipeline class. Single-threaded,
// like the paper's per-paradigm comparisons; headline numbers in
// EXPERIMENTS.md.
func BenchmarkHybridVsPure(b *testing.B) {
	db, _, _ := benchDBs()
	ctx := context.Background()
	for _, name := range []string{"Q3", "Q5"} {
		text, ok := logical.SQLText("tpch", name)
		if !ok {
			b.Fatalf("no canonical %s SQL text", name)
		}
		pl, err := logical.Prepare(db, text)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []string{engine.Typer, engine.Tectorwise, engine.Hybrid} {
			b.Run(name+"/"+eng, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := engine.Run(ctx, eng, pl, engine.Options{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
