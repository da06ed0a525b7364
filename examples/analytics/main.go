// Analytics: build a custom vectorized query with the Tectorwise operator
// and primitive APIs — a query that is not part of the paper's workload.
//
// The query, over the Star Schema Benchmark:
//
//	SELECT s_nation, SUM(lo_revenue)
//	FROM lineorder, supplier
//	WHERE lo_suppkey = s_suppkey AND s_region = ASIA
//	  AND lo_quantity < 10
//	GROUP BY s_nation
//
// demonstrating selection cascades, a hash join, and a group-by composed
// from the engine's building blocks.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"sort"

	"paradigms"
	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/tpch"
	"paradigms/internal/tw"
	"paradigms/internal/types"
	"paradigms/internal/vector"
)

func main() {
	db := paradigms.GenerateSSB(0.1, 0)
	lo := db.Rel("lineorder")
	losk := lo.Int32("lo_suppkey")
	loqty := lo.Numeric("lo_quantity")
	lorev := lo.Numeric("lo_revenue")
	supp := db.Rel("supplier")
	sk := supp.Int32("s_suppkey")
	sregion := supp.Int32("s_region")
	snation := supp.Int32("s_nation")

	const asia = int32(2)
	const workers = 4
	vec := vector.DefaultSize

	htSupp := hashtable.New(2, workers)
	dispSupp := exec.NewDispatcher(supp.Rows(), 0)
	dispFact := exec.NewDispatcher(lo.Rows(), 0)
	bar := exec.NewBarrier(workers)
	partial := make([]map[int32]int64, workers)

	exec.Parallel(workers, func(w int) {
		bufs := vector.NewBuffers(vec)
		sel := bufs.Sel()
		keys := bufs.Ref()
		hashes := bufs.Ref()
		nations := bufs.Ref()

		// Build: supplier σ(region=ASIA) → HT(suppkey → nation).
		scanS := tw.NewScan(dispSupp, vec)
		sh := htSupp.Shard(w)
		for {
			n := scanS.Next()
			if n == 0 {
				break
			}
			b := scanS.Base
			k := tw.SelEq(sregion[b:b+n], asia, sel)
			if k == 0 {
				continue
			}
			tw.MapWidenSel(sk[b:b+n], sel[:k], keys)
			tw.MapHashU64(keys[:k], hashes)
			tw.MapWidenSel(snation[b:b+n], sel[:k], nations)
			base := sh.AllocN(htSupp, k)
			tw.ScatterHashes(htSupp, base, hashes, k)
			tw.ScatterWord(htSupp, base, 0, keys, k)
			tw.ScatterWord(htSupp, base, 1, nations, k)
		}
		tw.BuildBarrier(htSupp, bar, w)

		// Probe: lineorder σ(quantity<10) ⋈ HT → Γ(nation).
		sums := make(map[int32]int64)
		partial[w] = sums
		scanF := tw.NewScan(dispFact, vec)
		pr := tw.NewProber(bufs)
		mRefs := make([]hashtable.Ref, vec)
		mPos := bufs.Sel()
		abs := bufs.Sel()
		rev := bufs.I64()
		for {
			n := scanF.Next()
			if n == 0 {
				break
			}
			b := scanF.Base
			k := tw.SelLT(loqty[b:b+n], types.Numeric(10*types.NumericScale), sel)
			if k == 0 {
				continue
			}
			tw.MapWidenSel(losk[b:b+n], sel[:k], keys)
			nm := pr.Probe(htSupp, keys, k, mRefs, mPos)
			if nm == 0 {
				continue
			}
			tw.ComposePos(sel, mPos[:nm], abs)
			tw.FetchI64(lorev[b:b+n], abs[:nm], rev)
			for i := 0; i < nm; i++ {
				nation := int32(htSupp.Word(mRefs[i], 1))
				sums[nation] += rev[i]
			}
		}
	})

	total := make(map[int32]int64)
	for _, p := range partial {
		for nation, s := range p {
			total[nation] += s
		}
	}
	type row struct {
		nation int32
		sum    int64
	}
	rows := make([]row, 0, len(total))
	for n, s := range total {
		rows = append(rows, row{n, s})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sum > rows[j].sum })

	fmt.Println("Small-order revenue by Asian supplier nation (custom vectorized query):")
	for _, r := range rows {
		fmt.Printf("  %-12s %16s\n", tpch.Nations[r.nation].Name, types.Numeric(r.sum))
	}
}
