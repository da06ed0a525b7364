package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/queries"
	"paradigms/internal/storage"
	"paradigms/internal/tpch"
	"paradigms/internal/tw"
	"paradigms/internal/typer"
	"paradigms/internal/vector"
)

// The §8 "other factors" experiments and the DESIGN.md §6 ablations.

// CompileText quantifies §8.2: plan/setup cost per query for both
// engines. Go ships Typer's "generated" code pre-compiled (DESIGN.md S1),
// so the LLVM-compilation asymmetry of the paper cannot be measured
// directly; what can is the per-query setup work (Tectorwise allocates an
// operator tree plus vector buffers per worker; Typer's setup is a few
// dispatchers). Q6 and Q3 have no hand-written kernels, so their rows
// also include parsing, planning and lowering the canonical SQL text.
// The paper's qualitative claim is reported alongside.
func CompileText() string {
	db := tpch.Generate(0.001, 1)
	var b strings.Builder
	b.WriteString("§8.2 — query setup time (1-row-scale database, so execution ≈ 0)\n")
	for _, q := range queries.TPCHQueries {
		ty := timeQuery(5, func() { Run(db, "typer", q, 1, 0) })
		tww := timeQuery(5, func() { Run(db, "tectorwise", q, 1, 0) })
		fmt.Fprintf(&b, "%-5s  Typer setup+run %8.3fms   TW setup+run %8.3fms\n", q, ms(ty), ms(tww))
	}
	b.WriteString("(paper: compilation-based engines risk compile time > execution time;\n" +
		" vectorized engines pre-compile primitives. Here both are AOT-compiled;\n" +
		" TW's extra setup is its per-worker vector-buffer allocation;\n" +
		" Q6 and Q3 run SQL, so their rows include parse + plan + lower.)\n")
	return b.String()
}

// ProfilingText demonstrates §8.3: Tectorwise can attribute runtime to
// primitives with marginal overhead, because one timer covers ~1000
// tuples. The demo times Q6's primitive classes.
func ProfilingText(db *storage.Database, cfg Config) string {
	li := db.Rel("lineitem")
	ship := li.Date("l_shipdate")
	qty := li.Numeric("l_quantity")
	ext := li.Numeric("l_extendedprice")
	disc := li.Numeric("l_discount")
	vec := 1000

	var selTime, projTime, sumTime time.Duration
	run := func(profile bool) time.Duration {
		sel1 := make([]int32, vec)
		sel2 := make([]int32, vec)
		prod := make([]int64, vec)
		start := time.Now()
		var sum int64
		disp := exec.NewDispatcher(li.Rows(), 0)
		scan := tw.NewScan(disp, vec)
		for {
			n := scan.Next()
			if n == 0 {
				break
			}
			b := scan.Base
			var t0 time.Time
			if profile {
				t0 = time.Now()
			}
			k := tw.SelGE(ship[b:b+n], queries.Q6DateLo, sel1)
			k = tw.SelLTSel(ship[b:b+n], queries.Q6DateHi, sel1[:k], sel2)
			k = tw.SelGESel(disc[b:b+n], queries.Q6DiscLo, sel2[:k], sel1)
			k = tw.SelLESel(disc[b:b+n], queries.Q6DiscHi, sel1[:k], sel2)
			k = tw.SelLTSel(qty[b:b+n], queries.Q6Quantity, sel2[:k], sel1)
			if profile {
				selTime += time.Since(t0)
			}
			if k == 0 {
				continue
			}
			if profile {
				t0 = time.Now()
			}
			tw.MapMulColsSel(ext[b:b+n], disc[b:b+n], sel1[:k], prod)
			if profile {
				projTime += time.Since(t0)
				t0 = time.Now()
			}
			sum += tw.SumI64(prod, k)
			if profile {
				sumTime += time.Since(t0)
			}
		}
		_ = sum
		return time.Since(start)
	}
	plain := timeQuery(cfg.Reps, func() { run(false) })
	selTime, projTime, sumTime = 0, 0, 0
	profiled := run(true)

	var b strings.Builder
	b.WriteString("§8.3 — per-primitive profiling of Tectorwise Q6\n")
	fmt.Fprintf(&b, "unprofiled run: %8.1fms   profiled run: %8.1fms   overhead: %+.1f%%\n",
		ms(plain), ms(profiled), (float64(profiled)/float64(plain)-1)*100)
	total := selTime + projTime + sumTime
	if total > 0 {
		fmt.Fprintf(&b, "breakdown: selection %4.1f%%  projection %4.1f%%  sum %4.1f%%\n",
			100*float64(selTime)/float64(total),
			100*float64(projTime)/float64(total),
			100*float64(sumTime)/float64(total))
	}
	b.WriteString("(paper: primitive timers add marginal overhead since each call covers ~1000 tuples;\n" +
		" compiled engines cannot attribute time to operators inside a fused pipeline)\n")
	return b.String()
}

// AdaptivityText demonstrates §8.4: the micro-adaptive ordered
// aggregation lets the vectorized Q1 skip per-tuple hashing.
func AdaptivityText(db *storage.Database, cfg Config) string {
	std := timeQuery(cfg.Reps, func() { tw.Q1Ctx(context.Background(), db, 1, 0) })
	adaptive := timeQuery(cfg.Reps, func() { tw.Q1Adaptive(db, 1, 0) })
	var b strings.Builder
	b.WriteString("§8.4 — adaptive ordered aggregation (Tectorwise Q1, 1 thread)\n")
	fmt.Fprintf(&b, "hash aggregation:    %8.1fms\n", ms(std))
	fmt.Fprintf(&b, "ordered aggregation: %8.1fms   speedup %.2fx\n",
		ms(adaptive), float64(std)/float64(adaptive))
	b.WriteString("(paper: this optimization is why VectorWise beats Tectorwise on Q1;\n" +
		" it is possible because vectorized execution is interpreted and can swap\n" +
		" primitives mid-flight — compiled pipelines cannot)\n")
	return b.String()
}

// OLTPText demonstrates §8.1: point lookups (stored-procedure style)
// favor fused code; vector-at-a-time machinery degenerates at n=1.
func OLTPText(cfg Config) string {
	const tableSize = 1 << 20
	const lookups = 1 << 20
	// One table per engine style, each built with that engine's hash
	// function (as in §4.1).
	build := func(hf func(uint64) uint64) *hashtable.Table {
		t := hashtable.New(2, 1)
		sh := t.Shard(0)
		for i := uint64(0); i < tableSize; i++ {
			ref, _ := sh.Alloc(t, hf(i))
			t.SetWord(ref, 0, i)
			t.SetWord(ref, 1, i*3)
		}
		t.Finalize()
		return t
	}
	ht := build(hashtable.Mix64)
	htTW := build(hashtable.Murmur2)

	// Typer-style stored procedure: fused hash + probe per call.
	fused := timeQuery(cfg.Reps, func() {
		var sink uint64
		for i := uint64(0); i < lookups; i++ {
			key := (i * 2654435761) % tableSize
			h := hashtable.Mix64(key)
			for ref := ht.Lookup(h); ref != 0; ref = ht.Next(ref) {
				if ht.Hash(ref) == h && ht.Word(ref, 0) == key {
					sink += ht.Word(ref, 1)
					break
				}
			}
		}
		_ = sink
	})
	// Vectorized engine invoked with single-tuple "vectors": full
	// primitive round trip per lookup.
	keys := make([]uint64, 1)
	pr := tw.NewProber(vector.NewBuffers(1))
	mRefs := make([]hashtable.Ref, 8)
	mPos := make([]int32, 8)
	vectorized := timeQuery(cfg.Reps, func() {
		var sink uint64
		for i := uint64(0); i < lookups; i++ {
			keys[0] = (i * 2654435761) % tableSize
			nm := pr.Probe(htTW, keys, 1, mRefs, mPos)
			if nm > 0 {
				sink += htTW.Word(mRefs[0], 1)
			}
		}
		_ = sink
	})
	var b strings.Builder
	b.WriteString("§8.1 — OLTP-style point lookups (1M lookups, 1M-row table)\n")
	fmt.Fprintf(&b, "fused (compiled style):      %8.1fms  (%5.1f M lookups/s)\n",
		ms(fused), float64(lookups)/ms(fused)/1000)
	fmt.Fprintf(&b, "vector-at-a-time with n=1:   %8.1fms  (%5.1f M lookups/s)\n",
		ms(vectorized), float64(lookups)/ms(vectorized)/1000)
	fmt.Fprintf(&b, "compiled advantage: %.2fx\n", float64(vectorized)/float64(fused))
	b.WriteString("(paper: vectorization has little benefit over Volcano for single-tuple work;\n" +
		" compilation can fuse whole stored procedures)\n")
	return b.String()
}

// AblationText runs the DESIGN.md §6 ablations: Bloom tags, hash
// functions, morsel size.
func AblationText(db *storage.Database, cfg Config) string {
	var b strings.Builder
	b.WriteString("Ablations (DESIGN.md §6)\n\n")

	// (1) Hash-table Bloom tags on/off: selective-probe microbench.
	ht := hashtable.New(1, 1)
	sh := ht.Shard(0)
	const buildN = 1 << 18
	for i := uint64(0); i < buildN; i++ {
		ref, _ := sh.Alloc(ht, hashtable.Murmur2(i*16))
		ht.SetWord(ref, 0, i*16)
	}
	ht.Finalize()
	probe := func() {
		var sink uint64
		for i := uint64(0); i < 1<<20; i++ {
			k := i * 7 // ~94% misses
			h := hashtable.Murmur2(k)
			for ref := ht.Lookup(h); ref != 0; ref = ht.Next(ref) {
				if ht.Hash(ref) == h && ht.Word(ref, 0) == k {
					sink++
					break
				}
			}
		}
		_ = sink
	}
	ht.UseTags = true
	withTags := timeQuery(cfg.Reps, probe)
	ht.UseTags = false
	noTags := timeQuery(cfg.Reps, probe)
	ht.UseTags = true
	fmt.Fprintf(&b, "1. Bloom tags (1M selective probes): with %6.1fms  without %6.1fms  (%.2fx)\n",
		ms(withTags), ms(noTags), float64(noTags)/float64(withTags))

	// (2) Hash functions (§4.1): latency-bound fused chain vs
	// throughput-bound independent hashing.
	const hn = 1 << 22
	chain := func(hf func(uint64) uint64) time.Duration {
		return timeQuery(cfg.Reps, func() {
			v := uint64(1)
			for i := 0; i < hn; i++ {
				v = hf(v) // serial dependency: latency bound (fused loop)
			}
			_ = v
		})
	}
	indep := func(hf func(uint64) uint64) time.Duration {
		return timeQuery(cfg.Reps, func() {
			var acc uint64
			for i := uint64(0); i < hn; i++ {
				acc ^= hf(i) // independent: throughput bound (primitive)
			}
			_ = acc
		})
	}
	fmt.Fprintf(&b, "2. hash latency (serial chain):  Mix64 %6.1fms  Murmur2 %6.1fms  CRC %6.1fms\n",
		ms(chain(hashtable.Mix64)), ms(chain(hashtable.Murmur2)), ms(chain(hashtable.CRC)))
	fmt.Fprintf(&b, "   hash throughput (independent): Mix64 %6.1fms  Murmur2 %6.1fms  CRC %6.1fms\n",
		ms(indep(hashtable.Mix64)), ms(indep(hashtable.Murmur2)), ms(indep(hashtable.CRC)))

	// (3) Morsel size sweep on Q6 (8 threads or cfg.Threads).
	li := db.Rel("lineitem")
	ship := li.Date("l_shipdate")
	for _, msz := range []int{1 << 10, 1 << 14, exec.DefaultMorselSize, 1 << 20} {
		d := timeQuery(cfg.Reps, func() {
			disp := exec.NewDispatcher(li.Rows(), msz)
			var parts [8]int64
			exec.Parallel(8, func(w int) {
				var sum int64
				for {
					m, ok := disp.Next()
					if !ok {
						break
					}
					for i := m.Begin; i < m.End; i++ {
						if ship[i] >= queries.Q6DateLo {
							sum++
						}
					}
				}
				parts[w] = sum
			})
		})
		fmt.Fprintf(&b, "3. morsel size %8d: scan %6.1fms\n", msz, ms(d))
	}

	// (4) Typer with Tectorwise's hash and vice versa (full-query view
	// of ablation 2): done by swapping the package-level Hash variables.
	origTyper, origTW := typer.Hash, tw.Hash
	q9Std := timeQuery(cfg.Reps, func() { Run(db, "typer", "Q9", 1, 0) })
	typer.Hash = hashtable.Murmur2
	q9Swapped := timeQuery(cfg.Reps, func() { Run(db, "typer", "Q9", 1, 0) })
	typer.Hash = origTyper
	twQ9Std := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", "Q9", 1, 0) })
	tw.Hash = hashtable.Mix64
	twQ9Swapped := timeQuery(cfg.Reps, func() { Run(db, "tectorwise", "Q9", 1, 0) })
	tw.Hash = origTW
	fmt.Fprintf(&b, "4. Q9 hash swap: Typer Mix64 %6.1fms / Murmur2 %6.1fms;"+
		" TW Murmur2 %6.1fms / Mix64 %6.1fms\n",
		ms(q9Std), ms(q9Swapped), ms(twQ9Std), ms(twQ9Swapped))
	return b.String()
}
