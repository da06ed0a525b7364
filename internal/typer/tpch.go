package typer

import (
	"bytes"
	"context"
	"unsafe"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/queries"
	"paradigms/internal/storage"
	"paradigms/internal/types"
)

// This file is the "generated code" for the TPC-H subset: one function per
// query, each consisting of fused tuple-at-a-time pipeline loops in the
// style of Figure 2a of the paper. Q6 and Q3 have none: they run their
// SQL text through the compiled lowering (internal/registry).

// ---------------------------------------------------------------------
// Q1: scan lineitem → σ(shipdate) → Γ(returnflag, linestatus; 8 aggs)
// ---------------------------------------------------------------------

type q1Group struct {
	key       uint64
	sumQty    int64
	sumBase   int64
	sumDisc   int64
	sumCharge int64
	sumDiscnt int64
	count     int64
}

// Q1Ctx executes TPC-H Q1 with the given number of worker threads.
func Q1Ctx(ctx context.Context, db *storage.Database, nWorkers int) queries.Q1Result {
	w := workers(nWorkers)
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
	spill := hashtable.NewSpill(w, aggPartitions, 8)
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.Q1Result, w)

	exec.Parallel(w, func(wid int) {
		// Pipeline 1: fused scan + filter + pre-aggregation.
		local := hashtable.New(7, 1)
		local.Prepare(hashtable.PreAggCapacity)
		sh := local.Shard(0)
		for {
			m, ok := disp.Next()
			if !ok {
				break
			}
		tuples:
			for i := m.Begin; i < m.End; i++ {
				if ship[i] > cutoff {
					continue
				}
				key := uint64(rf[i])<<8 | uint64(ls[i])
				h := Hash(key)
				e, d, t := int64(ext[i]), int64(disc[i]), int64(tax[i])
				q := int64(qty[i])
				for ref := local.Lookup(h); ref != 0; ref = local.Next(ref) {
					if local.Hash(ref) == h {
						g := (*q1Group)(local.Payload(ref))
						if g.key == key {
							g.sumQty += q
							g.sumBase += e
							g.sumDisc += e * (100 - d)
							g.sumCharge += e * (100 - d) * (100 + t)
							g.sumDiscnt += d
							g.count++
							continue tuples
						}
					}
				}
				if local.Rows() < hashtable.PreAggCapacity {
					ref, p := sh.Alloc(local, h)
					g := (*q1Group)(p)
					g.key = key
					g.sumQty = q
					g.sumBase = e
					g.sumDisc = e * (100 - d)
					g.sumCharge = e * (100 - d) * (100 + t)
					g.sumDiscnt = d
					g.count = 1
					local.Insert(ref, h)
				} else {
					row := spill.AppendRow(wid, hashtable.PartitionOf(h, aggPartitions))
					row[0] = h
					row[1] = key
					row[2] = uint64(q)
					row[3] = uint64(e)
					row[4] = uint64(e * (100 - d))
					row[5] = uint64(e * (100 - d) * (100 + t))
					row[6] = uint64(d)
					row[7] = 1
				}
			}
		}
		// Flush the pre-aggregated groups into the spill partitions.
		local.ForEach(func(ref hashtable.Ref) {
			h := local.Hash(ref)
			g := (*q1Group)(local.Payload(ref))
			row := spill.AppendRow(wid, hashtable.PartitionOf(h, aggPartitions))
			row[0] = h
			row[1] = g.key
			row[2] = uint64(g.sumQty)
			row[3] = uint64(g.sumBase)
			row[4] = uint64(g.sumDisc)
			row[5] = uint64(g.sumCharge)
			row[6] = uint64(g.sumDiscnt)
			row[7] = uint64(g.count)
		})
		bar.Wait(nil)

		// Pipeline 2: per-partition merge of partial aggregates.
		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			p := pm.Begin
			merged := hashtable.New(7, 1)
			merged.Prepare(spill.PartitionCount(p))
			msh := merged.Shard(0)
			spill.PartitionRows(p, func(row []uint64) {
				h, key := row[0], row[1]
				for ref := merged.Lookup(h); ref != 0; ref = merged.Next(ref) {
					if merged.Hash(ref) == h {
						g := (*q1Group)(merged.Payload(ref))
						if g.key == key {
							g.sumQty += int64(row[2])
							g.sumBase += int64(row[3])
							g.sumDisc += int64(row[4])
							g.sumCharge += int64(row[5])
							g.sumDiscnt += int64(row[6])
							g.count += int64(row[7])
							return
						}
					}
				}
				ref, ptr := msh.Alloc(merged, h)
				g := (*q1Group)(ptr)
				g.key = key
				g.sumQty = int64(row[2])
				g.sumBase = int64(row[3])
				g.sumDisc = int64(row[4])
				g.sumCharge = int64(row[5])
				g.sumDiscnt = int64(row[6])
				g.count = int64(row[7])
				merged.Insert(ref, h)
			})
			merged.ForEach(func(ref hashtable.Ref) {
				g := (*q1Group)(merged.Payload(ref))
				results[wid] = append(results[wid], queries.Q1Row{
					ReturnFlag: byte(g.key >> 8),
					LineStatus: byte(g.key),
					SumQty:     g.sumQty,
					SumBase:    g.sumBase,
					SumDisc:    g.sumDisc,
					SumCharge:  g.sumCharge,
					SumDiscnt:  g.sumDiscnt,
					Count:      g.count,
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

// ---------------------------------------------------------------------
// Q9: σ(part) ⋈ supplier ⋈ partsupp ⋈ lineitem ⋈ orders ⋈ nation
//     → Γ(nation, year; Σ profit)
// ---------------------------------------------------------------------

type q9Part struct{ key uint64 }

type q9Supp struct {
	key    uint64 // s_suppkey
	nation uint64
}

type q9PS struct {
	key  uint64 // pack32(partkey, suppkey)
	cost int64
}

type q9Line struct {
	key    uint64 // l_orderkey
	nation uint64
	amount int64 // scale 4
}

type q9Group struct {
	key    uint64 // pack32(year, nation)
	profit int64
}

// Q9Ctx executes TPC-H Q9.
func Q9Ctx(ctx context.Context, db *storage.Database, nWorkers int) queries.Q9Result {
	w := workers(nWorkers)
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
	spill := hashtable.NewSpill(w, aggPartitions, 3)
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.Q9Result, w)

	exec.Parallel(w, func(wid int) {
		// Pipeline 1: scan part, filter name, build HT_part.
		psh := htPart.Shard(wid)
		for {
			m, ok := dispPart.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				if bytes.Contains(pnames.Get(i), needle) {
					key := uint64(uint32(pkeys[i]))
					_, p := psh.Alloc(htPart, Hash(key))
					(*q9Part)(p).key = key
				}
			}
		}
		buildBarrier(htPart, bar, wid)

		// Pipeline 2: scan supplier, build HT_supp.
		ssh := htSupp.Shard(wid)
		for {
			m, ok := dispSupp.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				key := uint64(uint32(skeys[i]))
				_, p := ssh.Alloc(htSupp, Hash(key))
				e := (*q9Supp)(p)
				e.key = key
				e.nation = uint64(uint32(snation[i]))
			}
		}
		buildBarrier(htSupp, bar, wid)

		// Pipeline 3: scan partsupp, probe HT_part, build HT_ps.
		pssh := htPS.Shard(wid)
		for {
			m, ok := dispPS.Next()
			if !ok {
				break
			}
		psups:
			for i := m.Begin; i < m.End; i++ {
				pk := uint64(uint32(pspk[i]))
				h := Hash(pk)
				for ref := htPart.Lookup(h); ref != 0; ref = htPart.Next(ref) {
					if htPart.Hash(ref) == h && (*q9Part)(htPart.Payload(ref)).key == pk {
						key := pack32(uint32(pspk[i]), uint32(pssk[i]))
						_, p := pssh.Alloc(htPS, Hash(key))
						e := (*q9PS)(p)
						e.key = key
						e.cost = int64(pscost[i])
						continue psups
					}
				}
			}
		}
		buildBarrier(htPS, bar, wid)

		// Pipeline 4: scan lineitem, probe HT_part, HT_ps, HT_supp,
		// build HT_line keyed by l_orderkey.
		lish := htLine.Shard(wid)
		for {
			m, ok := dispLine.Next()
			if !ok {
				break
			}
		lines:
			for i := m.Begin; i < m.End; i++ {
				pk := uint64(uint32(lpk[i]))
				h := Hash(pk)
				for ref := htPart.Lookup(h); ref != 0; ref = htPart.Next(ref) {
					if htPart.Hash(ref) == h && (*q9Part)(htPart.Payload(ref)).key == pk {
						// Part qualifies: fetch supply cost.
						psKey := pack32(uint32(lpk[i]), uint32(lsk[i]))
						psh2 := Hash(psKey)
						var cost int64
						for pref := htPS.Lookup(psh2); pref != 0; pref = htPS.Next(pref) {
							if htPS.Hash(pref) == psh2 {
								e := (*q9PS)(htPS.Payload(pref))
								if e.key == psKey {
									cost = e.cost
									goto haveCost
								}
							}
						}
						continue lines // no partsupp row (cannot happen on valid data)
					haveCost:
						sk := uint64(uint32(lsk[i]))
						sh2 := Hash(sk)
						for sref := htSupp.Lookup(sh2); sref != 0; sref = htSupp.Next(sref) {
							if htSupp.Hash(sref) == sh2 {
								se := (*q9Supp)(htSupp.Payload(sref))
								if se.key == sk {
									key := uint64(uint32(lok[i]))
									_, p := lish.Alloc(htLine, Hash(key))
									le := (*q9Line)(p)
									le.key = key
									le.nation = se.nation
									le.amount = int64(lext[i])*(100-int64(ldisc[i])) - cost*int64(lqty[i])
									continue lines
								}
							}
						}
						continue lines
					}
				}
			}
		}
		buildBarrier(htLine, bar, wid)

		// Pipeline 5: scan orders, probe HT_line (multi-match), aggregate
		// profit by (year, nation).
		local := hashtable.New(2, 1)
		local.Prepare(hashtable.PreAggCapacity)
		lsh := local.Shard(0)
		for {
			m, ok := dispOrd.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				ok2 := uint64(uint32(okeys[i]))
				h := Hash(ok2)
				ref := htLine.Lookup(h)
				if ref == 0 {
					continue
				}
				year := uint32(odate[i].Year())
				for ; ref != 0; ref = htLine.Next(ref) {
					if htLine.Hash(ref) != h {
						continue
					}
					le := (*q9Line)(htLine.Payload(ref))
					if le.key != ok2 {
						continue
					}
					gkey := pack32(year, uint32(le.nation))
					gh := Hash(gkey)
					amount := le.amount
					found := false
					for gref := local.Lookup(gh); gref != 0; gref = local.Next(gref) {
						if local.Hash(gref) == gh {
							g := (*q9Group)(local.Payload(gref))
							if g.key == gkey {
								g.profit += amount
								found = true
								break
							}
						}
					}
					if found {
						continue
					}
					if local.Rows() < hashtable.PreAggCapacity {
						gref, p := lsh.Alloc(local, gh)
						g := (*q9Group)(p)
						g.key = gkey
						g.profit = amount
						local.Insert(gref, gh)
					} else {
						row := spill.AppendRow(wid, hashtable.PartitionOf(gh, aggPartitions))
						row[0] = gh
						row[1] = gkey
						row[2] = uint64(amount)
					}
				}
			}
		}
		local.ForEach(func(ref hashtable.Ref) {
			g := (*q9Group)(local.Payload(ref))
			h := local.Hash(ref)
			row := spill.AppendRow(wid, hashtable.PartitionOf(h, aggPartitions))
			row[0] = h
			row[1] = g.key
			row[2] = uint64(g.profit)
		})
		bar.Wait(nil)

		// Pipeline 6: per-partition merge.
		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			p := pm.Begin
			merged := hashtable.New(2, 1)
			merged.Prepare(spill.PartitionCount(p))
			msh := merged.Shard(0)
			spill.PartitionRows(p, func(row []uint64) {
				h, key := row[0], row[1]
				for ref := merged.Lookup(h); ref != 0; ref = merged.Next(ref) {
					if merged.Hash(ref) == h {
						g := (*q9Group)(merged.Payload(ref))
						if g.key == key {
							g.profit += int64(row[2])
							return
						}
					}
				}
				ref, ptr := msh.Alloc(merged, h)
				g := (*q9Group)(ptr)
				g.key = key
				g.profit = int64(row[2])
				merged.Insert(ref, h)
			})
			merged.ForEach(func(ref hashtable.Ref) {
				g := (*q9Group)(merged.Payload(ref))
				results[wid] = append(results[wid], queries.Q9Row{
					Nation: int32(hi32(g.key)),
					Year:   int32(lo32(g.key)),
					Profit: g.profit,
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

// ---------------------------------------------------------------------
// Q18: Γ(lineitem by orderkey) → HAVING → ⋈ orders ⋈ customer → top-100
// ---------------------------------------------------------------------

type q18Group struct {
	key    uint64 // l_orderkey
	sumQty int64  // scale 2
}

type q18Big struct {
	key    uint64 // orderkey
	sumQty int64
}

type q18Match struct {
	key        uint64 // c_custkey
	ordDate    uint64 // pack32(orderkey, orderdate)
	totalPrice int64
	sumQty     int64
}

// Q18Ctx executes TPC-H Q18.
func Q18Ctx(ctx context.Context, db *storage.Database, nWorkers int) queries.Q18Result {
	w := workers(nWorkers)
	li := db.Rel("lineitem")
	lok := li.Int32("l_orderkey")
	lqty := li.Numeric("l_quantity")
	ord := db.Rel("orders")
	okeys := ord.Int32("o_orderkey")
	ocust := ord.Int32("o_custkey")
	odate := ord.Date("o_orderdate")
	ototal := ord.Numeric("o_totalprice")
	cust := db.Rel("customer")
	ckeys := cust.Int32("c_custkey")
	minQty := int64(queries.Q18Quantity)

	dispLine := exec.NewDispatcherCtx(ctx, li.Rows(), 0)
	dispOrd := exec.NewDispatcherCtx(ctx, ord.Rows(), 0)
	dispCust := exec.NewDispatcherCtx(ctx, cust.Rows(), 0)
	spill := hashtable.NewSpill(w, aggPartitions, 3)
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	htBig := hashtable.New(2, 1)
	htMatch := hashtable.New(4, w)
	qualifying := make([][]q18Big, w)
	tops := make([]*queries.TopK[queries.Q18Row], w)

	exec.Parallel(w, func(wid int) {
		// Pipeline 1: scan lineitem, pre-aggregate sum(qty) by orderkey.
		// This is the paper's high-cardinality aggregation: 1.5M·SF groups.
		local := hashtable.New(2, 1)
		local.Prepare(hashtable.PreAggCapacity)
		lsh := local.Shard(0)
		for {
			m, ok := dispLine.Next()
			if !ok {
				break
			}
		lines:
			for i := m.Begin; i < m.End; i++ {
				key := uint64(uint32(lok[i]))
				h := Hash(key)
				q := int64(lqty[i])
				for ref := local.Lookup(h); ref != 0; ref = local.Next(ref) {
					if local.Hash(ref) == h {
						g := (*q18Group)(local.Payload(ref))
						if g.key == key {
							g.sumQty += q
							continue lines
						}
					}
				}
				if local.Rows() < hashtable.PreAggCapacity {
					ref, p := lsh.Alloc(local, h)
					g := (*q18Group)(p)
					g.key = key
					g.sumQty = q
					local.Insert(ref, h)
				} else {
					row := spill.AppendRow(wid, hashtable.PartitionOf(h, aggPartitions))
					row[0] = h
					row[1] = key
					row[2] = uint64(q)
				}
			}
		}
		local.ForEach(func(ref hashtable.Ref) {
			g := (*q18Group)(local.Payload(ref))
			h := local.Hash(ref)
			row := spill.AppendRow(wid, hashtable.PartitionOf(h, aggPartitions))
			row[0] = h
			row[1] = g.key
			row[2] = uint64(g.sumQty)
		})
		bar.Wait(nil)

		// Pipeline 2: merge partitions; groups exceeding the HAVING bound
		// qualify for the join side.
		for {
			pm, ok := partDisp.Next()
			if !ok {
				break
			}
			p := pm.Begin
			merged := hashtable.New(2, 1)
			merged.Prepare(spill.PartitionCount(p))
			msh := merged.Shard(0)
			spill.PartitionRows(p, func(row []uint64) {
				h, key := row[0], row[1]
				for ref := merged.Lookup(h); ref != 0; ref = merged.Next(ref) {
					if merged.Hash(ref) == h {
						g := (*q18Group)(merged.Payload(ref))
						if g.key == key {
							g.sumQty += int64(row[2])
							return
						}
					}
				}
				ref, ptr := msh.Alloc(merged, h)
				g := (*q18Group)(ptr)
				g.key = key
				g.sumQty = int64(row[2])
				merged.Insert(ref, h)
			})
			merged.ForEach(func(ref hashtable.Ref) {
				g := (*q18Group)(merged.Payload(ref))
				if g.sumQty > minQty {
					qualifying[wid] = append(qualifying[wid], q18Big{key: g.key, sumQty: g.sumQty})
				}
			})
		}
		// Build HT_big from the few qualifying groups (single worker).
		bar.Wait(func() {
			total := 0
			for _, q := range qualifying {
				total += len(q)
			}
			htBig.Prepare(total)
			bsh := htBig.Shard(0)
			for _, qs := range qualifying {
				for _, qg := range qs {
					h := Hash(qg.key)
					ref, p := bsh.Alloc(htBig, h)
					e := (*q18Big)(p)
					e.key = qg.key
					e.sumQty = qg.sumQty
					htBig.Insert(ref, h)
				}
			}
		})

		// Pipeline 3: scan orders, probe HT_big, build HT_match keyed by
		// custkey.
		msh := htMatch.Shard(wid)
		for {
			m, ok := dispOrd.Next()
			if !ok {
				break
			}
		ordersLoop:
			for i := m.Begin; i < m.End; i++ {
				key := uint64(uint32(okeys[i]))
				h := Hash(key)
				for ref := htBig.Lookup(h); ref != 0; ref = htBig.Next(ref) {
					if htBig.Hash(ref) == h {
						e := (*q18Big)(htBig.Payload(ref))
						if e.key == key {
							ck := uint64(uint32(ocust[i]))
							_, p := msh.Alloc(htMatch, Hash(ck))
							mrow := (*q18Match)(p)
							mrow.key = ck
							mrow.ordDate = pack32(uint32(okeys[i]), uint32(odate[i]))
							mrow.totalPrice = int64(ototal[i])
							mrow.sumQty = e.sumQty
							continue ordersLoop
						}
					}
				}
			}
		}
		buildBarrier(htMatch, bar, wid)

		// Pipeline 4: scan customer, probe HT_match, top-100.
		top := queries.NewTopK[queries.Q18Row](100, queries.Q18Less)
		tops[wid] = top
		for {
			m, ok := dispCust.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				ck := uint64(uint32(ckeys[i]))
				h := Hash(ck)
				for ref := htMatch.Lookup(h); ref != 0; ref = htMatch.Next(ref) {
					if htMatch.Hash(ref) == h {
						e := (*q18Match)(htMatch.Payload(ref))
						if e.key == ck {
							top.Offer(queries.Q18Row{
								CustKey:    int32(uint32(ck)),
								OrderKey:   int32(lo32(e.ordDate)),
								OrderDate:  types.Date(hi32(e.ordDate)),
								TotalPrice: types.Numeric(e.totalPrice),
								SumQty:     e.sumQty,
							})
						}
					}
				}
			}
		}
	})

	final := queries.NewTopK[queries.Q18Row](100, queries.Q18Less)
	for _, t := range tops {
		final.Merge(t)
	}
	return final.Sorted()
}

// Ensure struct layouts match the payload word counts passed to New.
var (
	_ = func() struct{} {
		if unsafe.Sizeof(q1Group{}) != 7*8 ||
			unsafe.Sizeof(q9Part{}) != 1*8 ||
			unsafe.Sizeof(q9Supp{}) != 2*8 ||
			unsafe.Sizeof(q9PS{}) != 2*8 ||
			unsafe.Sizeof(q9Line{}) != 3*8 ||
			unsafe.Sizeof(q9Group{}) != 2*8 ||
			unsafe.Sizeof(q18Group{}) != 2*8 ||
			unsafe.Sizeof(q18Big{}) != 2*8 ||
			unsafe.Sizeof(q18Match{}) != 4*8 {
			panic("typer: payload struct size mismatch")
		}
		return struct{}{}
	}()
)
