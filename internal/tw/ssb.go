package tw

import (
	"context"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/queries"
	"paradigms/internal/storage"
	"paradigms/internal/vector"
)

// Monolithic vectorized pipelines for the SSB subset (§4.4): lineorder
// probes filtered dimension hash tables, densifying between joins.
// Q2.1 is ported to internal/plan as a declarative operator plan; Q1.1
// runs its SQL text (internal/registry).

// buildDimHT materializes a filtered dimension into a shared hash table:
// selFn computes the qualifying selection for the current vector; keyCol
// is the dimension key; valCol (may be nil) is a payload attribute.
func buildDimHT(ht *hashtable.Table, disp *exec.Dispatcher, bar *exec.Barrier,
	wid, vec int,
	selFn func(b, n int, sel []int32) int,
	keyFn func(b int, n int, sel []int32, k int, keys []uint64),
	valFn func(b int, n int, sel []int32, k int, vals []uint64)) {

	bufs := vector.NewBuffers(vec)
	sel := bufs.Sel()
	keys := bufs.Ref()
	hashes := bufs.Ref()
	vals := bufs.Ref()
	scan := NewScan(disp, vec)
	sh := ht.Shard(wid)
	for {
		n := scan.Next()
		if n == 0 {
			break
		}
		b := scan.Base
		k := selFn(b, n, sel)
		if k == 0 {
			continue
		}
		keyFn(b, n, sel, k, keys)
		MapHashU64(keys[:k], hashes)
		base := sh.AllocN(ht, k)
		ScatterHashes(ht, base, hashes, k)
		ScatterWord(ht, base, 0, keys, k)
		if valFn != nil {
			valFn(b, n, sel, k, vals)
			ScatterWord(ht, base, 1, vals, k)
		}
	}
	BuildBarrier(ht, bar, wid)
}

// SSBQ31Ctx executes SSB Q3.1.
func SSBQ31Ctx(ctx context.Context, db *storage.Database, nWorkers, vecSize int) queries.SSBQ31Result {
	w := workers(nWorkers)
	vec := vecOrDefault(vecSize)
	cust := db.Rel("customer")
	ck := cust.Int32("c_custkey")
	cregion := cust.Int32("c_region")
	cnation := cust.Int32("c_nation")
	supp := db.Rel("supplier")
	sk := supp.Int32("s_suppkey")
	sregion := supp.Int32("s_region")
	snation := supp.Int32("s_nation")
	date := db.Rel("date")
	dk := date.Date("d_datekey")
	dy := date.Int32("d_year")
	lo := db.Rel("lineorder")
	lock := lo.Int32("lo_custkey")
	losk := lo.Int32("lo_suppkey")
	lod := lo.Date("lo_orderdate")
	rev := lo.Numeric("lo_revenue")

	htCust := hashtable.New(2, w)
	htSupp := hashtable.New(2, w)
	htDate := hashtable.New(2, w)
	dispCust := exec.NewDispatcherCtx(ctx, cust.Rows(), 0)
	dispSupp := exec.NewDispatcherCtx(ctx, supp.Rows(), 0)
	dispDate := exec.NewDispatcherCtx(ctx, date.Rows(), 0)
	dispFact := exec.NewDispatcherCtx(ctx, lo.Rows(), 0)
	ops := []hashtable.AggOp{hashtable.OpSum}
	spill := hashtable.NewSpill(w, aggPartitions, 2+len(ops))
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.SSBQ31Result, w)

	exec.Parallel(w, func(wid int) {
		buildDimHT(htCust, dispCust, bar, wid, vec,
			func(b, n int, sel []int32) int { return SelEq(cregion[b:b+n], queries.SSBQ31Region, sel) },
			func(b, n int, sel []int32, k int, keys []uint64) { MapWidenSel(ck[b:b+n], sel[:k], keys) },
			func(b, n int, sel []int32, k int, vals []uint64) { MapWidenSel(cnation[b:b+n], sel[:k], vals) })
		buildDimHT(htSupp, dispSupp, bar, wid, vec,
			func(b, n int, sel []int32) int { return SelEq(sregion[b:b+n], queries.SSBQ31Region, sel) },
			func(b, n int, sel []int32, k int, keys []uint64) { MapWidenSel(sk[b:b+n], sel[:k], keys) },
			func(b, n int, sel []int32, k int, vals []uint64) { MapWidenSel(snation[b:b+n], sel[:k], vals) })
		buildDimHT(htDate, dispDate, bar, wid, vec,
			func(b, n int, sel []int32) int {
				return SelRangeSel(dy[b:b+n], queries.SSBQ31YearLo, queries.SSBQ31YearHi,
					vector.Iota(sel, n), sel)
			},
			func(b, n int, sel []int32, k int, keys []uint64) { MapWidenSel(dk[b:b+n], sel[:k], keys) },
			func(b, n int, sel []int32, k int, vals []uint64) { MapWidenSel(dy[b:b+n], sel[:k], vals) })

		bufs := vector.NewBuffers(vec)
		keys := bufs.Ref()
		keys2 := bufs.Ref()
		keys3 := bufs.Ref()
		pr := NewProber(bufs)
		m1Refs := make([]hashtable.Ref, vec)
		m1Pos := bufs.Sel()
		m2Refs := make([]hashtable.Ref, vec)
		m2Pos := bufs.Sel()
		m3Refs := make([]hashtable.Ref, vec)
		m3Pos := bufs.Sel()
		abs2 := bufs.Sel()
		abs3 := bufs.Sel()
		cn1 := bufs.Ref()
		cn2 := bufs.Ref()
		cn3 := bufs.Ref()
		sn2 := bufs.Ref()
		sn3 := bufs.Ref()
		yr3 := bufs.Ref()
		gkeys := bufs.Ref()
		ghashes := bufs.Ref()
		revv := bufs.I64()
		gb := NewGroupBy(spill, wid, ops, vec)
		vals := [][]int64{revv}

		scan := NewScan(dispFact, vec)
		for {
			n := scan.Next()
			if n == 0 {
				break
			}
			b := scan.Base
			MapWiden(lock[b:b+n], n, keys)
			nm1 := pr.Probe(htCust, keys, n, m1Refs, m1Pos)
			if nm1 == 0 {
				continue
			}
			GatherWord(htCust, m1Refs, 1, nm1, cn1)
			MapWidenSel(losk[b:b+n], m1Pos[:nm1], keys2)
			nm2 := pr.Probe(htSupp, keys2, nm1, m2Refs, m2Pos)
			if nm2 == 0 {
				continue
			}
			GatherWord(htSupp, m2Refs, 1, nm2, sn2)
			ComposePos(m1Pos, m2Pos[:nm2], abs2)
			FetchU64(cn1, m2Pos[:nm2], cn2)
			MapWidenSel(lod[b:b+n], abs2[:nm2], keys3)
			nm3 := pr.Probe(htDate, keys3, nm2, m3Refs, m3Pos)
			if nm3 == 0 {
				continue
			}
			GatherWord(htDate, m3Refs, 1, nm3, yr3)
			ComposePos(abs2, m3Pos[:nm3], abs3)
			FetchU64(cn2, m3Pos[:nm3], cn3)
			FetchU64(sn2, m3Pos[:nm3], sn3)
			MapPack3(cn3, sn3, yr3, nm3, gkeys)
			MapHashU64(gkeys[:nm3], ghashes)
			FetchI64(rev[b:b+n], abs3[:nm3], revv)
			gb.Consume(nm3, gkeys, ghashes, vals)
		}
		gb.Flush()
		bar.Wait(nil)

		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			hashtable.MergeSpill(spill, pm.Begin, ops, func(row []uint64) {
				results[wid] = append(results[wid], queries.SSBQ31Row{
					CNation: int32(row[1] >> 40 & 0xff),
					SNation: int32(row[1] >> 32 & 0xff),
					Year:    int32(uint32(row[1])),
					Revenue: int64(row[2]),
				})
			})
		}
	})

	var out queries.SSBQ31Result
	for _, r := range results {
		out = append(out, r...)
	}
	queries.SortSSBQ31(out)
	return out
}

// SSBQ41Ctx executes SSB Q4.1.
func SSBQ41Ctx(ctx context.Context, db *storage.Database, nWorkers, vecSize int) queries.SSBQ41Result {
	w := workers(nWorkers)
	vec := vecOrDefault(vecSize)
	cust := db.Rel("customer")
	ck := cust.Int32("c_custkey")
	cregion := cust.Int32("c_region")
	cnation := cust.Int32("c_nation")
	supp := db.Rel("supplier")
	sk := supp.Int32("s_suppkey")
	sregion := supp.Int32("s_region")
	part := db.Rel("part")
	pk := part.Int32("p_partkey")
	mfgr := part.Int32("p_mfgr")
	date := db.Rel("date")
	dk := date.Date("d_datekey")
	dy := date.Int32("d_year")
	lo := db.Rel("lineorder")
	lock := lo.Int32("lo_custkey")
	losk := lo.Int32("lo_suppkey")
	lopk := lo.Int32("lo_partkey")
	lod := lo.Date("lo_orderdate")
	rev := lo.Numeric("lo_revenue")
	cost := lo.Numeric("lo_supplycost")

	htCust := hashtable.New(2, w)
	htSupp := hashtable.New(1, w)
	htPart := hashtable.New(1, w)
	htDate := hashtable.New(2, w)
	dispCust := exec.NewDispatcherCtx(ctx, cust.Rows(), 0)
	dispSupp := exec.NewDispatcherCtx(ctx, supp.Rows(), 0)
	dispPart := exec.NewDispatcherCtx(ctx, part.Rows(), 0)
	dispDate := exec.NewDispatcherCtx(ctx, date.Rows(), 0)
	dispFact := exec.NewDispatcherCtx(ctx, lo.Rows(), 0)
	ops := []hashtable.AggOp{hashtable.OpSum}
	spill := hashtable.NewSpill(w, aggPartitions, 2+len(ops))
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.SSBQ41Result, w)

	exec.Parallel(w, func(wid int) {
		buildDimHT(htCust, dispCust, bar, wid, vec,
			func(b, n int, sel []int32) int { return SelEq(cregion[b:b+n], queries.SSBQ41Region, sel) },
			func(b, n int, sel []int32, k int, keys []uint64) { MapWidenSel(ck[b:b+n], sel[:k], keys) },
			func(b, n int, sel []int32, k int, vals []uint64) { MapWidenSel(cnation[b:b+n], sel[:k], vals) })
		buildDimHT(htSupp, dispSupp, bar, wid, vec,
			func(b, n int, sel []int32) int { return SelEq(sregion[b:b+n], queries.SSBQ41Region, sel) },
			func(b, n int, sel []int32, k int, keys []uint64) { MapWidenSel(sk[b:b+n], sel[:k], keys) },
			nil)
		buildDimHT(htPart, dispPart, bar, wid, vec,
			func(b, n int, sel []int32) int {
				return SelRangeSel(mfgr[b:b+n], queries.SSBQ41MfgrLo, queries.SSBQ41MfgrHi,
					vector.Iota(sel, n), sel)
			},
			func(b, n int, sel []int32, k int, keys []uint64) { MapWidenSel(pk[b:b+n], sel[:k], keys) },
			nil)
		buildDimHT(htDate, dispDate, bar, wid, vec,
			func(b, n int, sel []int32) int { return SelGE(dy[b:b+n], int32(0), sel) },
			func(b, n int, sel []int32, k int, keys []uint64) { MapWidenSel(dk[b:b+n], sel[:k], keys) },
			func(b, n int, sel []int32, k int, vals []uint64) { MapWidenSel(dy[b:b+n], sel[:k], vals) })

		bufs := vector.NewBuffers(vec)
		keys := bufs.Ref()
		keys2 := bufs.Ref()
		keys3 := bufs.Ref()
		keys4 := bufs.Ref()
		pr := NewProber(bufs)
		m1Refs := make([]hashtable.Ref, vec)
		m1Pos := bufs.Sel()
		m2Refs := make([]hashtable.Ref, vec)
		m2Pos := bufs.Sel()
		m3Refs := make([]hashtable.Ref, vec)
		m3Pos := bufs.Sel()
		m4Refs := make([]hashtable.Ref, vec)
		m4Pos := bufs.Sel()
		abs2 := bufs.Sel()
		abs3 := bufs.Sel()
		abs4 := bufs.Sel()
		cn1 := bufs.Ref()
		cn2 := bufs.Ref()
		cn3 := bufs.Ref()
		cn4 := bufs.Ref()
		yr4 := bufs.Ref()
		gkeys := bufs.Ref()
		ghashes := bufs.Ref()
		revv := bufs.I64()
		costv := bufs.I64()
		profit := bufs.I64()
		gb := NewGroupBy(spill, wid, ops, vec)
		vals := [][]int64{profit}

		scan := NewScan(dispFact, vec)
		for {
			n := scan.Next()
			if n == 0 {
				break
			}
			b := scan.Base
			MapWiden(lock[b:b+n], n, keys)
			nm1 := pr.Probe(htCust, keys, n, m1Refs, m1Pos)
			if nm1 == 0 {
				continue
			}
			GatherWord(htCust, m1Refs, 1, nm1, cn1)
			MapWidenSel(losk[b:b+n], m1Pos[:nm1], keys2)
			nm2 := pr.Probe(htSupp, keys2, nm1, m2Refs, m2Pos)
			if nm2 == 0 {
				continue
			}
			ComposePos(m1Pos, m2Pos[:nm2], abs2)
			FetchU64(cn1, m2Pos[:nm2], cn2)
			MapWidenSel(lopk[b:b+n], abs2[:nm2], keys3)
			nm3 := pr.Probe(htPart, keys3, nm2, m3Refs, m3Pos)
			if nm3 == 0 {
				continue
			}
			ComposePos(abs2, m3Pos[:nm3], abs3)
			FetchU64(cn2, m3Pos[:nm3], cn3)
			MapWidenSel(lod[b:b+n], abs3[:nm3], keys4)
			nm4 := pr.Probe(htDate, keys4, nm3, m4Refs, m4Pos)
			if nm4 == 0 {
				continue
			}
			GatherWord(htDate, m4Refs, 1, nm4, yr4)
			ComposePos(abs3, m4Pos[:nm4], abs4)
			FetchU64(cn3, m4Pos[:nm4], cn4)
			// gkey = year | c_nation<<32
			for i := 0; i < nm4; i++ {
				gkeys[i] = yr4[i] | cn4[i]<<32
			}
			MapHashU64(gkeys[:nm4], ghashes)
			FetchI64(rev[b:b+n], abs4[:nm4], revv)
			FetchI64(cost[b:b+n], abs4[:nm4], costv)
			MapSub(revv, costv, nm4, profit)
			gb.Consume(nm4, gkeys, ghashes, vals)
		}
		gb.Flush()
		bar.Wait(nil)

		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			hashtable.MergeSpill(spill, pm.Begin, ops, func(row []uint64) {
				results[wid] = append(results[wid], queries.SSBQ41Row{
					Year:    int32(uint32(row[1])),
					CNation: int32(uint32(row[1] >> 32)),
					Profit:  int64(row[2]),
				})
			})
		}
	})

	var out queries.SSBQ41Result
	for _, r := range results {
		out = append(out, r...)
	}
	queries.SortSSBQ41(out)
	return out
}
