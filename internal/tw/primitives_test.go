package tw

import (
	"testing"
	"testing/quick"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
	"paradigms/internal/types"
	"paradigms/internal/vector"
)

func newTestDispatcher(n int) *exec.Dispatcher { return exec.NewDispatcher(n, 0) }

func TestSelPrimitivesAgainstNaive(t *testing.T) {
	f := func(data []int64, pivot int64) bool {
		res := make([]int32, len(data))
		k := SelGE(data, pivot, res)
		naive := 0
		for i, v := range data {
			if v >= pivot {
				if res[naive] != int32(i) {
					return false
				}
				naive++
			}
		}
		return k == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelSelVariantsAgainstNaive(t *testing.T) {
	f := func(data []int64, loRaw, hiRaw int64) bool {
		lo, hi := loRaw, hiRaw
		if lo > hi {
			lo, hi = hi, lo
		}
		sel := make([]int32, len(data))
		res := make([]int32, len(data))
		tmp := make([]int32, len(data))
		k := SelGE(data, lo, sel)
		k = SelLESel(data, hi, sel[:k], res)
		// Equivalent range primitive over a dense iota.
		for i := range tmp {
			tmp[i] = int32(i)
		}
		res2 := make([]int32, len(data))
		k2 := SelRangeSel(data, lo, hi, tmp, res2)
		if k != k2 {
			return false
		}
		for i := 0; i < k; i++ {
			if res[i] != res2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComposeAndFetch(t *testing.T) {
	col := []int64{10, 20, 30, 40, 50}
	outer := []int32{4, 2, 0}
	inner := []int32{2, 0}
	res := make([]int32, 2)
	ComposePos(outer, inner, res)
	if res[0] != 0 || res[1] != 4 {
		t.Fatalf("ComposePos = %v", res)
	}
	out := make([]int64, 2)
	FetchI64(col, res, out)
	if out[0] != 10 || out[1] != 50 {
		t.Fatalf("FetchI64 = %v", out)
	}
}

func TestMapYearSelMatchesTypes(t *testing.T) {
	dates := make([]types.Date, 0, 3000)
	for d := types.MakeDate(1992, 1, 1); d <= types.MakeDate(1998, 12, 31); d += 3 {
		dates = append(dates, d)
	}
	sel := make([]int32, len(dates))
	for i := range sel {
		sel[i] = int32(i)
	}
	res := make([]int64, len(dates))
	MapYearSel(dates, sel, res)
	for i, d := range dates {
		if int(res[i]) != d.Year() {
			t.Fatalf("year(%v) = %d, want %d", d, res[i], d.Year())
		}
	}
}

func TestProbeFindsAllDuplicates(t *testing.T) {
	ht := hashtable.New(2, 1)
	sh := ht.Shard(0)
	// Three entries with key 7, one with key 8.
	for i := 0; i < 3; i++ {
		h := Hash(7)
		ref, _ := sh.Alloc(ht, h)
		ht.SetWord(ref, 0, 7)
		ht.SetWord(ref, 1, uint64(100+i))
	}
	h8 := Hash(8)
	ref, _ := sh.Alloc(ht, h8)
	ht.SetWord(ref, 0, 8)
	ht.SetWord(ref, 1, 999)
	ht.Finalize()

	keys := []uint64{7, 8, 9}
	mRefs := make([]hashtable.Ref, 16)
	mPos := make([]int32, 16)
	nm := NewProber(vector.NewBuffers(3)).Probe(ht, keys, 3, mRefs, mPos)
	if nm != 4 {
		t.Fatalf("Probe found %d matches, want 4", nm)
	}
	counts := map[int32]int{}
	for i := 0; i < nm; i++ {
		counts[mPos[i]]++
	}
	if counts[0] != 3 || counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("match distribution = %v", counts)
	}
}

func TestGroupByConsumeAndMerge(t *testing.T) {
	const workers = 1
	spill := hashtable.NewSpill(workers, aggPartitions, 3)
	ops := []hashtable.AggOp{hashtable.OpSum}
	gb := NewGroupBy(spill, 0, ops, 8)

	keys := []uint64{1, 2, 1, 3, 2, 1}
	hashes := make([]uint64, len(keys))
	MapHashU64(keys, hashes)
	vals := [][]int64{{10, 20, 30, 40, 50, 60}}
	gb.Consume(len(keys), keys, hashes, vals)
	gb.Flush()

	got := map[uint64]int64{}
	for p := 0; p < aggPartitions; p++ {
		hashtable.MergeSpill(spill, p, ops, func(row []uint64) {
			got[row[1]] += int64(row[2])
		})
	}
	want := map[uint64]int64{1: 100, 2: 70, 3: 40}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("group %d = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

func TestGroupBySpillOverflow(t *testing.T) {
	// More distinct keys than hashtable.PreAggCapacity forces the spill path.
	spill := hashtable.NewSpill(1, aggPartitions, 3)
	ops := []hashtable.AggOp{hashtable.OpSum}
	const vecLen = 1024
	gb := NewGroupBy(spill, 0, ops, vecLen)
	keys := make([]uint64, vecLen)
	hashes := make([]uint64, vecLen)
	vals := [][]int64{make([]int64, vecLen)}
	total := 0
	for base := 0; base < 3*hashtable.PreAggCapacity; base += vecLen {
		for i := 0; i < vecLen; i++ {
			keys[i] = uint64(base + i)
			vals[0][i] = 1
		}
		MapHashU64(keys, hashes)
		gb.Consume(vecLen, keys, hashes, vals)
		total += vecLen
	}
	gb.Flush()
	groups := 0
	var sum int64
	for p := 0; p < aggPartitions; p++ {
		hashtable.MergeSpill(spill, p, ops, func(row []uint64) {
			groups++
			sum += int64(row[2])
		})
	}
	if groups != 3*hashtable.PreAggCapacity {
		t.Fatalf("groups = %d, want %d", groups, 3*hashtable.PreAggCapacity)
	}
	if sum != int64(total) {
		t.Fatalf("sum = %d, want %d", sum, total)
	}
}

func TestSumI64(t *testing.T) {
	f := func(vals []int64) bool {
		var want int64
		for _, v := range vals {
			want += v
		}
		return SumI64(vals, len(vals)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapPrimitives(t *testing.T) {
	a := []int64{1, 2, 3}
	b := []int64{10, 20, 30}
	res := make([]int64, 3)
	MapMul(a, b, 3, res)
	if res[0] != 10 || res[2] != 90 {
		t.Fatalf("MapMul = %v", res)
	}
	MapSub(b, a, 3, res)
	if res[0] != 9 || res[2] != 27 {
		t.Fatalf("MapSub = %v", res)
	}
	MapRsubConst(a, 100, 3, res)
	if res[0] != 99 || res[2] != 97 {
		t.Fatalf("MapRsubConst = %v", res)
	}
	MapAddConst(a, 5, 3, res)
	if res[0] != 6 || res[2] != 8 {
		t.Fatalf("MapAddConst = %v", res)
	}
	packed := make([]uint64, 2)
	MapPack2x32([]int32{1, 2}, []int32{3, 4}, 2, packed)
	if packed[0] != (1|3<<32) || packed[1] != (2|4<<32) {
		t.Fatalf("MapPack2x32 = %x", packed)
	}
	MapPack2x8Sel([]byte{'R', 'A'}, []byte{'F', 'O'}, []int32{1, 0}, packed)
	if packed[0] != uint64('A')<<8|uint64('O') || packed[1] != uint64('R')<<8|uint64('F') {
		t.Fatalf("MapPack2x8Sel = %x", packed)
	}
}
