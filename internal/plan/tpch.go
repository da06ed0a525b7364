package plan

import (
	"context"

	"paradigms/internal/hashtable"
	"paradigms/internal/queries"
	"paradigms/internal/storage"
	"paradigms/internal/tw"
	"paradigms/internal/types"
	"paradigms/internal/vector"
)

// Declarative operator plans for the Tectorwise TPC-H queries that were
// ported off their pipeline monoliths (plus Q5, which never had one).
// Each query function declares shared state, assembles one operator tree
// per worker from the stage constructors, and merges per-worker results.

// Q18Ctx executes TPC-H Q18.
func Q18Ctx(ctx context.Context, db *storage.Database, nWorkers, vecSize int) queries.Q18Result {
	e := newExec(ctx, nWorkers, vecSize)
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

	dispLine := e.ScanDisp(li)
	dispOrd := e.ScanDisp(ord)
	dispCust := e.ScanDisp(cust)
	ops := []hashtable.AggOp{hashtable.OpSum}
	spill := hashtable.NewSpill(e.Workers, tw.AggPartitions, 2+len(ops))
	partDisp := e.PartDisp(tw.AggPartitions)
	htBig := hashtable.New(2, 1)
	htMatch := hashtable.New(4, e.Workers)
	type bigGroup struct {
		key    uint64
		sumQty int64
	}
	qualifying := make([][]bigGroup, e.Workers)
	tops := make([]*queries.TopK[queries.Q18Row], e.Workers)

	e.Run(func(wid int, bufs *vector.Buffers) []Stage {
		// Pipeline 1: Γ(lineitem by orderkey): the 1.5M·SF-group
		// aggregation that dominates this query.
		aggregate := Stage{
			Root: e.NewScan(dispLine),
			Sink: NewGroupBy(bufs, spill, wid, ops, KeyWiden(lok), ColI64(lqty)),
		}

		// Pipeline 2: merge partitions; HAVING sum(qty) > 300.
		having := MergeStage(partDisp, spill, ops, func(wid int, row []uint64) {
			if int64(row[2]) > minQty {
				qualifying[wid] = append(qualifying[wid], bigGroup{key: row[1], sumQty: int64(row[2])})
			}
		})

		// The few qualifying groups become a shared build side (single
		// worker, behind the plan barrier).
		buildBig := Stage{Run: func(wid int) {
			e.Wait(func() {
				total := 0
				for _, q := range qualifying {
					total += len(q)
				}
				htBig.Prepare(total)
				sh := htBig.Shard(0)
				for _, qs := range qualifying {
					for _, qg := range qs {
						h := tw.Hash(qg.key)
						ref, _ := sh.Alloc(htBig, h)
						htBig.SetWord(ref, 0, qg.key)
						htBig.SetWord(ref, 1, uint64(qg.sumQty))
						htBig.Insert(ref, h)
					}
				}
			})
		}}

		// Pipeline 3: orders ⋈ HT_big → HT_match keyed by custkey.
		sq := bufs.I64()
		buildMatch := Stage{
			Root: NewHashProbe(bufs, e.NewScan(dispOrd),
				ProbeSpec{HT: htBig, Key: KeyWiden(okeys),
					GatherI64: []GatherI64{{Word: 1, Dst: sq}}}),
			Sink: NewHashBuild(bufs, htMatch, wid, KeyWiden(ocust),
				KeyPack2x32(okeys, odate), ColU64FromI64(ototal), U64FromI64(sq)),
		}

		// Pipeline 4: customer ⋈ HT_match (multi-match); offers go
		// straight to the worker's top-100 sink.
		top := queries.NewTopK[queries.Q18Row](100, queries.Q18Less)
		tops[wid] = top
		emit := Stage{
			Root: e.NewScan(dispCust),
			Sink: NewProbeEmit(bufs, htMatch, KeyWiden(ckeys), func(ref hashtable.Ref, key uint64) {
				od := htMatch.Word(ref, 1)
				top.Offer(queries.Q18Row{
					CustKey:    int32(uint32(key)),
					OrderKey:   int32(uint32(od)),
					OrderDate:  types.Date(uint32(od >> 32)),
					TotalPrice: types.Numeric(int64(htMatch.Word(ref, 2))),
					SumQty:     int64(htMatch.Word(ref, 3)),
				})
			}),
		}

		return []Stage{aggregate, having, buildBig, buildMatch, emit}
	})

	final := queries.NewTopK[queries.Q18Row](100, queries.Q18Less)
	for _, t := range tops {
		final.Merge(t)
	}
	return final.Sorted()
}

// Q5Ctx executes TPC-H Q5 — the query this layer was built to make
// cheap: it exists only as a plan, never as a monolith. The region ⋈
// nation join is folded into queries.Q5NationLUT (both engines' plans
// share it); the c_nation = s_nation residual is a Match operator over
// the two gathered payload vectors.
func Q5Ctx(ctx context.Context, db *storage.Database, nWorkers, vecSize int) queries.Q5Result {
	e := newExec(ctx, nWorkers, vecSize)
	lut := queries.Q5NationLUT(db)
	supp := db.Rel("supplier")
	skeys := supp.Int32("s_suppkey")
	snat := supp.Int32("s_nationkey")
	cust := db.Rel("customer")
	ckeys := cust.Int32("c_custkey")
	cnat := cust.Int32("c_nationkey")
	ord := db.Rel("orders")
	okeys := ord.Int32("o_orderkey")
	ocust := ord.Int32("o_custkey")
	odate := ord.Date("o_orderdate")
	li := db.Rel("lineitem")
	lok := li.Int32("l_orderkey")
	lsk := li.Int32("l_suppkey")
	lext := li.Numeric("l_extendedprice")
	ldisc := li.Numeric("l_discount")

	htSupp := hashtable.New(2, e.Workers)
	htCust := hashtable.New(2, e.Workers)
	htOrd := hashtable.New(2, e.Workers)
	dispSupp := e.ScanDisp(supp)
	dispCust := e.ScanDisp(cust)
	dispOrd := e.ScanDisp(ord)
	dispLine := e.ScanDisp(li)
	ops := []hashtable.AggOp{hashtable.OpSum}
	spill := hashtable.NewSpill(e.Workers, tw.AggPartitions, 2+len(ops))
	partDisp := e.PartDisp(tw.AggPartitions)
	results := make([]queries.Q5Result, e.Workers)

	e.Run(func(wid int, bufs *vector.Buffers) []Stage {
		// Pipeline 1: supplier σ(nation∈ASIA) → HT_supp (payload nation).
		buildSupp := Stage{
			Root: NewFilterChain(bufs, e.NewScan(dispSupp), PredLUT(snat, lut)),
			Sink: NewHashBuild(bufs, htSupp, wid, KeyWiden(skeys), KeyWiden(snat)),
		}

		// Pipeline 2: customer σ(nation∈ASIA) → HT_cust (payload nation).
		buildCust := Stage{
			Root: NewFilterChain(bufs, e.NewScan(dispCust), PredLUT(cnat, lut)),
			Sink: NewHashBuild(bufs, htCust, wid, KeyWiden(ckeys), KeyWiden(cnat)),
		}

		// Pipeline 3: orders σ(orderdate) ⋈ HT_cust → HT_ord
		// (orderkey → customer nation).
		cnOrd := bufs.Ref()
		buildOrd := Stage{
			Root: NewHashProbe(bufs,
				NewFilterChain(bufs, e.NewScan(dispOrd),
					PredRange32(odate, queries.Q5DateLo, queries.Q5DateHi-1)),
				ProbeSpec{HT: htCust, Key: KeyWiden(ocust),
					GatherU64: []GatherU64{{Word: 1, Dst: cnOrd}}}),
			Sink: NewHashBuild(bufs, htOrd, wid, KeyWiden(okeys), FromU64(cnOrd)),
		}

		// Pipeline 4: lineitem ⋈ HT_ord ⋈ HT_supp, σ(c_nation = s_nation)
		// → Γ(nation; Σ revenue).
		cn := bufs.Ref()
		sn := bufs.Ref()
		e2 := bufs.I64()
		d2 := bufs.I64()
		rev := bufs.I64()
		aggregate := Stage{
			Root: NewProject(
				NewMatch(bufs,
					NewHashProbe(bufs,
						NewHashProbe(bufs, e.NewScan(dispLine),
							ProbeSpec{HT: htOrd, Key: KeyWiden(lok),
								GatherU64: []GatherU64{{Word: 1, Dst: cn}}}),
						ProbeSpec{HT: htSupp, Key: KeyWiden(lsk),
							GatherU64: []GatherU64{{Word: 1, Dst: sn}},
							Carry:     []Carry{CarryU64(bufs, cn)}}),
					func(b *Batch, res []int32) int { return tw.SelEqCols(cn, sn, b.K, res) },
					CarryU64(bufs, cn)),
				func(b *Batch) {
					tw.FetchI64(window(lext, b), b.Sel[:b.K], e2)
					tw.MapRsubConstSel(window(ldisc, b), 100, b.Sel[:b.K], d2)
					tw.MapMul(e2, d2, b.K, rev)
				}),
			Sink: NewGroupBy(bufs, spill, wid, ops, FromU64(cn), FromI64(rev)),
		}

		// Pipeline 5: per-partition merge.
		merge := MergeStage(partDisp, spill, ops, func(wid int, row []uint64) {
			results[wid] = append(results[wid], queries.Q5Row{
				Nation:  int32(uint32(row[1])),
				Revenue: int64(row[2]),
			})
		})

		return []Stage{buildSupp, buildCust, buildOrd, aggregate, merge}
	})

	var out queries.Q5Result
	for _, r := range results {
		out = append(out, r...)
	}
	queries.SortQ5(out)
	return out
}
