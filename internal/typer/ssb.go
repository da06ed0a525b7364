package typer

import (
	"context"
	"unsafe"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/queries"
	"paradigms/internal/storage"
)

// Generated code for the Star Schema Benchmark subset (§4.4): Q3.1 and
// Q4.1 — lineorder scans probing filtered dimension hash tables,
// followed by a small group-by. Q1.1 and Q2.1 run their SQL text
// through the compiled lowering (internal/registry).

type ssbDate struct {
	key  uint64 // d_datekey (days)
	year uint64
}

type ssbKeyed struct {
	key uint64
	val uint64 // nation / brand, depending on the dimension
}

type ssbGroup struct {
	key uint64
	sum int64
}

// buildDateHT builds a datekey→year hash table over the date dimension,
// optionally restricted to a year range.
func buildDateHT(db *storage.Database, ht *hashtable.Table, bar *exec.Barrier,
	disp *exec.Dispatcher, wid int, yearLo, yearHi int32) {
	date := db.Rel("date")
	dk := date.Date("d_datekey")
	dy := date.Int32("d_year")
	sh := ht.Shard(wid)
	for {
		m, ok := disp.Next()
		if !ok {
			break
		}
		for i := m.Begin; i < m.End; i++ {
			if dy[i] < yearLo || dy[i] > yearHi {
				continue
			}
			key := uint64(uint32(dk[i]))
			_, p := sh.Alloc(ht, Hash(key))
			e := (*ssbDate)(p)
			e.key = key
			e.year = uint64(uint32(dy[i]))
		}
	}
	buildBarrier(ht, bar, wid)
}

// ssbAgg is the shared fused two-phase aggregation tail used by Q3.1
// and Q4.1 (group key and sum already computed by the caller's probe
// pipeline; this merges partitions and emits (key, sum) pairs).
func ssbAggMerge(spill *hashtable.Spill, partDisp *exec.Dispatcher, emit func(key uint64, sum int64)) {
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
					g := (*ssbGroup)(merged.Payload(ref))
					if g.key == key {
						g.sum += int64(row[2])
						return
					}
				}
			}
			ref, ptr := msh.Alloc(merged, h)
			g := (*ssbGroup)(ptr)
			g.key = key
			g.sum = int64(row[2])
			merged.Insert(ref, h)
		})
		merged.ForEach(func(ref hashtable.Ref) {
			g := (*ssbGroup)(merged.Payload(ref))
			emit(g.key, g.sum)
		})
	}
}

// localAgg is the fused pre-aggregation step shared by the SSB queries.
type localAgg struct {
	ht    *hashtable.Table
	sh    *hashtable.Shard
	spill *hashtable.Spill
	wid   int
}

func newLocalAgg(spill *hashtable.Spill, wid int) *localAgg {
	ht := hashtable.New(2, 1)
	ht.Prepare(hashtable.PreAggCapacity)
	return &localAgg{ht: ht, sh: ht.Shard(0), spill: spill, wid: wid}
}

func (a *localAgg) add(key uint64, delta int64) {
	h := Hash(key)
	for ref := a.ht.Lookup(h); ref != 0; ref = a.ht.Next(ref) {
		if a.ht.Hash(ref) == h {
			g := (*ssbGroup)(a.ht.Payload(ref))
			if g.key == key {
				g.sum += delta
				return
			}
		}
	}
	if a.ht.Rows() < hashtable.PreAggCapacity {
		ref, p := a.sh.Alloc(a.ht, h)
		g := (*ssbGroup)(p)
		g.key = key
		g.sum = delta
		a.ht.Insert(ref, h)
		return
	}
	row := a.spill.AppendRow(a.wid, hashtable.PartitionOf(h, a.spill.Parts()))
	row[0] = h
	row[1] = key
	row[2] = uint64(delta)
}

func (a *localAgg) flush() {
	a.ht.ForEach(func(ref hashtable.Ref) {
		g := (*ssbGroup)(a.ht.Payload(ref))
		h := a.ht.Hash(ref)
		row := a.spill.AppendRow(a.wid, hashtable.PartitionOf(h, a.spill.Parts()))
		row[0] = h
		row[1] = g.key
		row[2] = uint64(g.sum)
	})
}

// SSBQ31Ctx executes SSB Q3.1.
func SSBQ31Ctx(ctx context.Context, db *storage.Database, nWorkers int) queries.SSBQ31Result {
	w := workers(nWorkers)
	cust := db.Rel("customer")
	ck := cust.Int32("c_custkey")
	cregion := cust.Int32("c_region")
	cnation := cust.Int32("c_nation")
	supp := db.Rel("supplier")
	sk := supp.Int32("s_suppkey")
	sregion := supp.Int32("s_region")
	snation := supp.Int32("s_nation")
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
	dispDate := exec.NewDispatcherCtx(ctx, db.Rel("date").Rows(), 0)
	dispFact := exec.NewDispatcherCtx(ctx, lo.Rows(), 0)
	spill := hashtable.NewSpill(w, aggPartitions, 3)
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.SSBQ31Result, w)

	exec.Parallel(w, func(wid int) {
		csh := htCust.Shard(wid)
		for {
			m, ok := dispCust.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				if cregion[i] == queries.SSBQ31Region {
					key := uint64(uint32(ck[i]))
					_, p := csh.Alloc(htCust, Hash(key))
					e := (*ssbKeyed)(p)
					e.key = key
					e.val = uint64(uint32(cnation[i]))
				}
			}
		}
		buildBarrier(htCust, bar, wid)

		ssh := htSupp.Shard(wid)
		for {
			m, ok := dispSupp.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				if sregion[i] == queries.SSBQ31Region {
					key := uint64(uint32(sk[i]))
					_, p := ssh.Alloc(htSupp, Hash(key))
					e := (*ssbKeyed)(p)
					e.key = key
					e.val = uint64(uint32(snation[i]))
				}
			}
		}
		buildBarrier(htSupp, bar, wid)

		buildDateHT(db, htDate, bar, dispDate, wid, queries.SSBQ31YearLo, queries.SSBQ31YearHi)

		agg := newLocalAgg(spill, wid)
		for {
			m, ok := dispFact.Next()
			if !ok {
				break
			}
		facts:
			for i := m.Begin; i < m.End; i++ {
				ckey := uint64(uint32(lock[i]))
				chh := Hash(ckey)
				for cref := htCust.Lookup(chh); cref != 0; cref = htCust.Next(cref) {
					if htCust.Hash(cref) == chh {
						ce := (*ssbKeyed)(htCust.Payload(cref))
						if ce.key == ckey {
							skey := uint64(uint32(losk[i]))
							shh := Hash(skey)
							for sref := htSupp.Lookup(shh); sref != 0; sref = htSupp.Next(sref) {
								if htSupp.Hash(sref) == shh {
									se := (*ssbKeyed)(htSupp.Payload(sref))
									if se.key == skey {
										dkey := uint64(uint32(lod[i]))
										dh := Hash(dkey)
										for dref := htDate.Lookup(dh); dref != 0; dref = htDate.Next(dref) {
											if htDate.Hash(dref) == dh {
												de := (*ssbDate)(htDate.Payload(dref))
												if de.key == dkey {
													// Group key packs (c_nation, s_nation, year):
													// 5 bits + 5 bits + 32 bits.
													gkey := uint64(ce.val)<<40 | uint64(se.val)<<32 | uint64(uint32(de.year))
													agg.add(gkey, int64(rev[i]))
													continue facts
												}
											}
										}
										continue facts
									}
								}
							}
							continue facts
						}
					}
				}
			}
		}
		agg.flush()
		bar.Wait(nil)

		ssbAggMerge(spill, partDisp, func(key uint64, sum int64) {
			results[wid] = append(results[wid], queries.SSBQ31Row{
				CNation: int32(key >> 40 & 0xff),
				SNation: int32(key >> 32 & 0xff),
				Year:    int32(uint32(key)),
				Revenue: sum,
			})
		})
	})

	var out queries.SSBQ31Result
	for _, r := range results {
		out = append(out, r...)
	}
	queries.SortSSBQ31(out)
	return out
}

// SSBQ41Ctx executes SSB Q4.1.
func SSBQ41Ctx(ctx context.Context, db *storage.Database, nWorkers int) queries.SSBQ41Result {
	w := workers(nWorkers)
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
	dispDate := exec.NewDispatcherCtx(ctx, db.Rel("date").Rows(), 0)
	dispFact := exec.NewDispatcherCtx(ctx, lo.Rows(), 0)
	spill := hashtable.NewSpill(w, aggPartitions, 3)
	partDisp := exec.NewDispatcherCtx(ctx, aggPartitions, 1)
	bar := exec.NewBarrier(w)
	results := make([]queries.SSBQ41Result, w)

	exec.Parallel(w, func(wid int) {
		csh := htCust.Shard(wid)
		for {
			m, ok := dispCust.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				if cregion[i] == queries.SSBQ41Region {
					key := uint64(uint32(ck[i]))
					_, p := csh.Alloc(htCust, Hash(key))
					e := (*ssbKeyed)(p)
					e.key = key
					e.val = uint64(uint32(cnation[i]))
				}
			}
		}
		buildBarrier(htCust, bar, wid)

		ssh := htSupp.Shard(wid)
		for {
			m, ok := dispSupp.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				if sregion[i] == queries.SSBQ41Region {
					key := uint64(uint32(sk[i]))
					_, p := ssh.Alloc(htSupp, Hash(key))
					(*q9Part)(p).key = key
				}
			}
		}
		buildBarrier(htSupp, bar, wid)

		psh := htPart.Shard(wid)
		for {
			m, ok := dispPart.Next()
			if !ok {
				break
			}
			for i := m.Begin; i < m.End; i++ {
				if mfgr[i] >= queries.SSBQ41MfgrLo && mfgr[i] <= queries.SSBQ41MfgrHi {
					key := uint64(uint32(pk[i]))
					_, p := psh.Alloc(htPart, Hash(key))
					(*q9Part)(p).key = key
				}
			}
		}
		buildBarrier(htPart, bar, wid)

		buildDateHT(db, htDate, bar, dispDate, wid, -1<<31+1, 1<<31-1)

		agg := newLocalAgg(spill, wid)
		for {
			m, ok := dispFact.Next()
			if !ok {
				break
			}
		facts:
			for i := m.Begin; i < m.End; i++ {
				ckey := uint64(uint32(lock[i]))
				chh := Hash(ckey)
				for cref := htCust.Lookup(chh); cref != 0; cref = htCust.Next(cref) {
					if htCust.Hash(cref) == chh {
						ce := (*ssbKeyed)(htCust.Payload(cref))
						if ce.key == ckey {
							skey := uint64(uint32(losk[i]))
							shh := Hash(skey)
							for sref := htSupp.Lookup(shh); sref != 0; sref = htSupp.Next(sref) {
								if htSupp.Hash(sref) == shh && (*q9Part)(htSupp.Payload(sref)).key == skey {
									pkey := uint64(uint32(lopk[i]))
									phh := Hash(pkey)
									for pref := htPart.Lookup(phh); pref != 0; pref = htPart.Next(pref) {
										if htPart.Hash(pref) == phh && (*q9Part)(htPart.Payload(pref)).key == pkey {
											dkey := uint64(uint32(lod[i]))
											dh := Hash(dkey)
											for dref := htDate.Lookup(dh); dref != 0; dref = htDate.Next(dref) {
												if htDate.Hash(dref) == dh {
													de := (*ssbDate)(htDate.Payload(dref))
													if de.key == dkey {
														gkey := pack32(uint32(de.year), uint32(ce.val))
														agg.add(gkey, int64(rev[i])-int64(cost[i]))
														continue facts
													}
												}
											}
											continue facts
										}
									}
									continue facts
								}
							}
							continue facts
						}
					}
				}
			}
		}
		agg.flush()
		bar.Wait(nil)

		ssbAggMerge(spill, partDisp, func(key uint64, sum int64) {
			results[wid] = append(results[wid], queries.SSBQ41Row{
				Year:    int32(lo32(key)),
				CNation: int32(hi32(key)),
				Profit:  sum,
			})
		})
	})

	var out queries.SSBQ41Result
	for _, r := range results {
		out = append(out, r...)
	}
	queries.SortSSBQ41(out)
	return out
}

var _ = func() struct{} {
	if unsafe.Sizeof(ssbDate{}) != 2*8 ||
		unsafe.Sizeof(ssbKeyed{}) != 2*8 ||
		unsafe.Sizeof(ssbGroup{}) != 2*8 {
		panic("typer: ssb payload struct size mismatch")
	}
	return struct{}{}
}()
