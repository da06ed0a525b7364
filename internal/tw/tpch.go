package tw

import (
	"context"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/queries"
	"paradigms/internal/storage"
	"paradigms/internal/vector"
)

// Monolithic vectorized pipelines for the TPC-H queries not yet ported
// to the declarative operator layer: each query function builds one
// pipeline per worker (private buffers, shared hash tables / dispatchers
// / barriers) and drives it vector-at-a-time. Q18 and Q5 live in
// internal/plan as operator plans assembled from this package's
// primitives; Q6 and Q3 run their SQL text (internal/registry).

func vecOrDefault(v int) int {
	if v <= 0 {
		return vector.DefaultSize
	}
	return v
}

// Q1Ctx executes TPC-H Q1 with the given worker count and vector size.
func Q1Ctx(ctx context.Context, db *storage.Database, nWorkers, vecSize int) queries.Q1Result {
	w := workers(nWorkers)
	vec := vecOrDefault(vecSize)
	li := db.Rel("lineitem")
	ship := li.Date("l_shipdate")
	qty := li.Numeric("l_quantity")
	ext := li.Numeric("l_extendedprice")
	disc := li.Numeric("l_discount")
	tax := li.Numeric("l_tax")
	rf := li.Byte("l_returnflag")
	ls := li.Byte("l_linestatus")
	cutoff := queries.Q1Cutoff

	disp := exec.NewDispatcherCtx(ctx, li.Rows(), 0)
	ops := []hashtable.AggOp{hashtable.OpSum, hashtable.OpSum, hashtable.OpSum,
		hashtable.OpSum, hashtable.OpSum, hashtable.OpSum}
	spill := hashtable.NewSpill(w, aggPartitions, 2+len(ops))
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.Q1Result, w)

	exec.Parallel(w, func(wid int) {
		scan := NewScan(disp, vec)
		bufs := vector.NewBuffers(vec)
		sel := bufs.Sel()
		keys := bufs.Ref()
		hashes := bufs.Ref()
		vQty := bufs.I64()
		vBase := bufs.I64()
		vDisc := bufs.I64()
		vCharge := bufs.I64()
		vDiscnt := bufs.I64()
		t100 := bufs.I64()
		tTax := bufs.I64()
		ones := bufs.I64()
		for i := range ones {
			ones[i] = 1
		}
		vals := [][]int64{vQty, vBase, vDisc, vCharge, vDiscnt, ones}
		gb := NewGroupBy(spill, wid, ops, vec)

		for {
			n := scan.Next()
			if n == 0 {
				break
			}
			b := scan.Base
			nSel := SelLE(ship[b:b+n], cutoff, sel)
			if nSel == 0 {
				continue
			}
			s := sel[:nSel]
			MapPack2x8Sel(rf[b:b+n], ls[b:b+n], s, keys)
			MapHashU64(keys[:nSel], hashes)
			FetchI64(qty[b:b+n], s, vQty)
			FetchI64(ext[b:b+n], s, vBase)
			MapRsubConstSel(disc[b:b+n], 100, s, t100)
			MapMul(vBase, t100, nSel, vDisc)
			FetchI64(tax[b:b+n], s, tTax)
			MapAddConst(tTax, 100, nSel, tTax)
			MapMul(vDisc, tTax, nSel, vCharge)
			FetchI64(disc[b:b+n], s, vDiscnt)
			gb.Consume(nSel, keys, hashes, vals)
		}
		gb.Flush()
		bar.Wait(nil)

		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			hashtable.MergeSpill(spill, pm.Begin, ops, func(row []uint64) {
				results[wid] = append(results[wid], queries.Q1Row{
					ReturnFlag: byte(row[1] >> 8),
					LineStatus: byte(row[1]),
					SumQty:     int64(row[2]),
					SumBase:    int64(row[3]),
					SumDisc:    int64(row[4]),
					SumCharge:  int64(row[5]),
					SumDiscnt:  int64(row[6]),
					Count:      int64(row[7]),
				})
			})
		}
	})

	var out queries.Q1Result
	for _, r := range results {
		out = append(out, r...)
	}
	queries.SortQ1(out)
	return out
}

// Q9Ctx executes TPC-H Q9.
func Q9Ctx(ctx context.Context, db *storage.Database, nWorkers, vecSize int) queries.Q9Result {
	w := workers(nWorkers)
	vec := vecOrDefault(vecSize)
	part := db.Rel("part")
	pnames := part.String("p_name")
	pkeys := part.Int32("p_partkey")
	supp := db.Rel("supplier")
	skeys := supp.Int32("s_suppkey")
	snation := supp.Int32("s_nationkey")
	ps := db.Rel("partsupp")
	pspk := ps.Int32("ps_partkey")
	pssk := ps.Int32("ps_suppkey")
	pscost := ps.Numeric("ps_supplycost")
	li := db.Rel("lineitem")
	lpk := li.Int32("l_partkey")
	lsk := li.Int32("l_suppkey")
	lok := li.Int32("l_orderkey")
	lqty := li.Numeric("l_quantity")
	lext := li.Numeric("l_extendedprice")
	ldisc := li.Numeric("l_discount")
	ord := db.Rel("orders")
	okeys := ord.Int32("o_orderkey")
	odate := ord.Date("o_orderdate")
	needle := []byte(queries.Q9Color)

	htPart := hashtable.New(1, w)
	htSupp := hashtable.New(2, w)
	htPS := hashtable.New(2, w)
	htLine := hashtable.New(3, w)
	dispPart := exec.NewDispatcherCtx(ctx, part.Rows(), 0)
	dispSupp := exec.NewDispatcherCtx(ctx, supp.Rows(), 0)
	dispPS := exec.NewDispatcherCtx(ctx, ps.Rows(), 0)
	dispLine := exec.NewDispatcherCtx(ctx, li.Rows(), 0)
	dispOrd := exec.NewDispatcherCtx(ctx, ord.Rows(), 0)
	ops := []hashtable.AggOp{hashtable.OpSum}
	spill := hashtable.NewSpill(w, aggPartitions, 2+len(ops))
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.Q9Result, w)

	// lineitem fan-out per order is at most 7.
	const maxFanout = 8

	exec.Parallel(w, func(wid int) {
		bufs := vector.NewBuffers(vec)
		sel := bufs.Sel()
		keys := bufs.Ref()
		hashes := bufs.Ref()
		keys2 := bufs.Ref()
		hashes2 := bufs.Ref()
		keys3 := bufs.Ref()
		keys4 := bufs.Ref()
		hashes4 := bufs.Ref()
		pr := NewProber(bufs)
		m1Refs := make([]hashtable.Ref, vec)
		m1Pos := bufs.Sel()
		m2Refs := make([]hashtable.Ref, vec)
		m2Pos := bufs.Sel()
		m3Refs := make([]hashtable.Ref, vec)
		m3Pos := bufs.Sel()
		abs2 := bufs.Sel()
		abs3 := bufs.Sel()
		cost2 := bufs.I64()
		cost3 := bufs.I64()
		nation3 := bufs.Ref()
		e3 := bufs.I64()
		d3 := bufs.I64()
		rev3 := bufs.I64()
		q3v := bufs.I64()
		cq3 := bufs.I64()
		amount3 := bufs.I64()

		// Pipeline 1: part σ(name contains green) → HT_part.
		scanP := NewScan(dispPart, vec)
		shP := htPart.Shard(wid)
		for {
			n := scanP.Next()
			if n == 0 {
				break
			}
			b := scanP.Base
			k := SelContainsString(pnames, b, n, needle, sel)
			if k == 0 {
				continue
			}
			MapWidenSel(pkeys[b:b+n], sel[:k], keys)
			MapHashU64(keys[:k], hashes)
			base := shP.AllocN(htPart, k)
			ScatterHashes(htPart, base, hashes, k)
			ScatterWord(htPart, base, 0, keys, k)
		}
		BuildBarrier(htPart, bar, wid)

		// Pipeline 2: supplier → HT_supp (suppkey → nationkey).
		scanS := NewScan(dispSupp, vec)
		shS := htSupp.Shard(wid)
		for {
			n := scanS.Next()
			if n == 0 {
				break
			}
			b := scanS.Base
			MapWiden(skeys[b:b+n], n, keys)
			MapHashU64(keys[:n], hashes)
			MapWiden(snation[b:b+n], n, keys2) // nation payload
			base := shS.AllocN(htSupp, n)
			ScatterHashes(htSupp, base, hashes, n)
			ScatterWord(htSupp, base, 0, keys, n)
			ScatterWord(htSupp, base, 1, keys2, n)
		}
		BuildBarrier(htSupp, bar, wid)

		// Pipeline 3: partsupp ⋉ HT_part → HT_ps ((partkey,suppkey) → cost).
		scanPS := NewScan(dispPS, vec)
		shPS := htPS.Shard(wid)
		for {
			n := scanPS.Next()
			if n == 0 {
				break
			}
			b := scanPS.Base
			MapWiden(pspk[b:b+n], n, keys)
			nm := pr.Probe(htPart, keys, n, m1Refs, m1Pos)
			if nm == 0 {
				continue
			}
			MapPack2x32Sel(pspk[b:b+n], pssk[b:b+n], m1Pos[:nm], keys2)
			MapHashU64(keys2[:nm], hashes2)
			FetchI64(pscost[b:b+n], m1Pos[:nm], cost2)
			base := shPS.AllocN(htPS, nm)
			ScatterHashes(htPS, base, hashes2, nm)
			ScatterWord(htPS, base, 0, keys2, nm)
			ScatterWordI64(htPS, base, 1, cost2, nm)
		}
		BuildBarrier(htPS, bar, wid)

		// Pipeline 4: lineitem ⋉ HT_part ⋈ HT_ps ⋈ HT_supp → HT_line.
		scanL := NewScan(dispLine, vec)
		shL := htLine.Shard(wid)
		for {
			n := scanL.Next()
			if n == 0 {
				break
			}
			b := scanL.Base
			MapWiden(lpk[b:b+n], n, keys)
			nm1 := pr.Probe(htPart, keys, n, m1Refs, m1Pos)
			if nm1 == 0 {
				continue
			}
			MapPack2x32Sel(lpk[b:b+n], lsk[b:b+n], m1Pos[:nm1], keys2)
			nm2 := pr.Probe(htPS, keys2, nm1, m2Refs, m2Pos)
			if nm2 == 0 {
				continue
			}
			GatherWordI64(htPS, m2Refs, 1, nm2, cost2)
			ComposePos(m1Pos, m2Pos[:nm2], abs2)
			MapWidenSel(lsk[b:b+n], abs2[:nm2], keys3)
			nm3 := pr.Probe(htSupp, keys3, nm2, m3Refs, m3Pos)
			if nm3 == 0 {
				continue
			}
			GatherWord(htSupp, m3Refs, 1, nm3, nation3)
			ComposePos(abs2, m3Pos[:nm3], abs3)
			FetchI64(cost2, m3Pos[:nm3], cost3)
			FetchI64(lext[b:b+n], abs3[:nm3], e3)
			MapRsubConstSel(ldisc[b:b+n], 100, abs3[:nm3], d3)
			MapMul(e3, d3, nm3, rev3)
			FetchI64(lqty[b:b+n], abs3[:nm3], q3v)
			MapMul(cost3, q3v, nm3, cq3)
			MapSub(rev3, cq3, nm3, amount3)
			MapWidenSel(lok[b:b+n], abs3[:nm3], keys4)
			MapHashU64(keys4[:nm3], hashes4)
			base := shL.AllocN(htLine, nm3)
			ScatterHashes(htLine, base, hashes4, nm3)
			ScatterWord(htLine, base, 0, keys4, nm3)
			ScatterWord(htLine, base, 1, nation3, nm3)
			ScatterWordI64(htLine, base, 2, amount3, nm3)
		}
		BuildBarrier(htLine, bar, wid)

		// Pipeline 5: orders ⋈ HT_line (multi-match) → Γ(year, nation).
		mRefs := make([]hashtable.Ref, vec*maxFanout)
		mPos := make([]int32, vec*maxFanout)
		amounts := make([]int64, vec*maxFanout)
		nations := make([]uint64, vec*maxFanout)
		years := make([]int64, vec*maxFanout)
		gkeys := make([]uint64, vec*maxFanout)
		ghashes := make([]uint64, vec*maxFanout)
		gb := NewGroupBy(spill, wid, ops, vec*maxFanout)
		vals := [][]int64{amounts}
		scanO := NewScan(dispOrd, vec)
		for {
			n := scanO.Next()
			if n == 0 {
				break
			}
			b := scanO.Base
			MapWiden(okeys[b:b+n], n, keys)
			nm := pr.Probe(htLine, keys, n, mRefs, mPos)
			if nm == 0 {
				continue
			}
			GatherWordI64(htLine, mRefs, 2, nm, amounts)
			GatherWord(htLine, mRefs, 1, nm, nations)
			MapYearSel(odate[b:b+n], mPos[:nm], years)
			MapPackLoHi(years, nations, nm, gkeys)
			MapHashU64(gkeys[:nm], ghashes)
			gb.Consume(nm, gkeys, ghashes, vals)
		}
		gb.Flush()
		bar.Wait(nil)

		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			hashtable.MergeSpill(spill, pm.Begin, ops, func(row []uint64) {
				results[wid] = append(results[wid], queries.Q9Row{
					Nation: int32(uint32(row[1] >> 32)),
					Year:   int32(uint32(row[1])),
					Profit: int64(row[2]),
				})
			})
		}
	})

	var out queries.Q9Result
	for _, r := range results {
		out = append(out, r...)
	}
	queries.SortQ9(out)
	return out
}
