package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"paradigms/internal/hashtable"
)

// refSelect is the trusted scalar oracle for the generic kernels.
func refSelect(data []int32, keep func(int32) bool) []int32 {
	var out []int32
	for i, v := range data {
		if keep(v) {
			out = append(out, int32(i))
		}
	}
	return out
}

func equalSel(a []int32, b []int32, n int) bool {
	if len(a) != n {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randData(r *rand.Rand, n int) []int32 {
	data := make([]int32, n)
	for i := range data {
		switch r.Intn(8) {
		case 0:
			data[i] = math.MinInt32
		case 1:
			data[i] = math.MaxInt32
		default:
			data[i] = int32(r.Uint32())
		}
	}
	return data
}

func TestSelectLTGEAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	bounds := []int32{math.MinInt32, -1000, 0, 1000, math.MaxInt32}
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1001} {
		data := randData(r, n)
		out := make([]int32, n+1)
		for _, b := range bounds {
			want := refSelect(data, func(v int32) bool { return v < b })
			if k := SelectLT(data, b, out); !equalSel(want, out[:k], k) {
				t.Fatalf("SelectLT n=%d bound=%d: got %d positions, want %d", n, b, k, len(want))
			}
			want = refSelect(data, func(v int32) bool { return v >= b })
			if k := SelectGE(data, b, out); !equalSel(want, out[:k], k) {
				t.Fatalf("SelectGE n=%d bound=%d: got %d positions, want %d", n, b, k, len(want))
			}
		}
	}
}

func TestSelectSparseAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, 64, 999} {
		data := randData(r, n)
		// A strided input selection, as a prior conjunct would produce.
		var sel []int32
		for i := 0; i < n; i += 2 {
			sel = append(sel, int32(i))
		}
		out := make([]int32, n+1)
		for _, b := range []int32{math.MinInt32, 0, math.MaxInt32} {
			var want []int32
			for _, s := range sel {
				if data[s] < b {
					want = append(want, s)
				}
			}
			if k := SelectSparseLT(data, b, sel, out); !equalSel(want, out[:k], k) {
				t.Fatalf("SelectSparseLT n=%d bound=%d mismatch", n, b)
			}
			want = nil
			for _, s := range sel {
				if data[s] >= b {
					want = append(want, s)
				}
			}
			if k := SelectSparseGE(data, b, sel, out); !equalSel(want, out[:k], k) {
				t.Fatalf("SelectSparseGE n=%d bound=%d mismatch", n, b)
			}
		}
	}
}

func TestSelectRangeAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ranges := [][2]int32{
		{math.MinInt32, math.MaxInt32},
		{math.MinInt32, 0},
		{0, math.MaxInt32},
		{-500, 500},
		{7, 7},
	}
	for _, n := range []int{0, 1, 3, 4, 63, 1000} {
		data := randData(r, n)
		out := make([]int32, n+1)
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			want := refSelect(data, func(v int32) bool { return v >= lo && v <= hi })
			if k := SelectRange(data, lo, hi, out); !equalSel(want, out[:k], k) {
				t.Fatalf("SelectRange n=%d [%d,%d]: got %d positions, want %d", n, lo, hi, k, len(want))
			}
		}
	}
}

func randData64(r *rand.Rand, n int) []int64 {
	data := make([]int64, n)
	for i := range data {
		switch r.Intn(8) {
		case 0:
			data[i] = math.MinInt64
		case 1:
			data[i] = math.MaxInt64
		case 2:
			data[i] = int64(r.Intn(2001) - 1000)
		default:
			data[i] = int64(r.Uint64())
		}
	}
	return data
}

// randSel is a sorted random subset of [0, n), as a prior conjunct
// would leave it.
func randSel(r *rand.Rand, n int) []int32 {
	var sel []int32
	for i := 0; i < n; i++ {
		if r.Intn(3) > 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// checkSparse runs a sparse range kernel twice — into a separate buffer,
// and narrowing sel in place — against the scalar filter of sel.
func checkSparse(t *testing.T, name string, sel []int32, keep func(s int32) bool, kernel func(sel, out []int32) int) {
	t.Helper()
	var want []int32
	for _, s := range sel {
		if keep(s) {
			want = append(want, s)
		}
	}
	out := make([]int32, len(sel))
	if k := kernel(sel, out); !equalSel(want, out[:k], k) {
		t.Fatalf("%s: got %d positions, want %d", name, k, len(want))
	}
	inPlace := append([]int32(nil), sel...)
	if k := kernel(inPlace, inPlace); !equalSel(want, inPlace[:k], k) {
		t.Fatalf("%s in place: got %d positions, want %d", name, k, len(want))
	}
}

func TestSelectRange64AgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	ranges := [][2]int64{
		{math.MinInt64, math.MaxInt64}, // hi-lo wraps
		{math.MinInt64, math.MinInt64},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, 0},
		{-1, math.MaxInt64},
		{-500, 500},
		{7, 7},
	}
	for _, n := range []int{0, 1, 3, 4, 63, 1000} {
		data := randData64(r, n)
		out := make([]int32, n)
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			var want []int32
			for i, v := range data {
				if v >= lo && v <= hi {
					want = append(want, int32(i))
				}
			}
			if k := SelectRange64(data, lo, hi, out); !equalSel(want, out[:k], k) {
				t.Fatalf("SelectRange64 n=%d [%d,%d]: got %d positions, want %d", n, lo, hi, k, len(want))
			}
		}
	}
}

func TestSelectRangeSparseAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ranges32 := [][2]int32{
		{math.MinInt32, math.MaxInt32},
		{math.MinInt32, math.MinInt32},
		{math.MaxInt32, math.MaxInt32},
		{-500, 500},
		{7, 7},
	}
	ranges64 := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, -1},
		{0, math.MaxInt64},
		{-500, 500},
		{7, 7},
	}
	for _, n := range []int{0, 1, 5, 64, 1000} {
		d32, d64 := randData(r, n), randData64(r, n)
		sel := randSel(r, n)
		for _, rg := range ranges32 {
			lo, hi := rg[0], rg[1]
			checkSparse(t, fmt.Sprintf("SelectRangeSparse n=%d [%d,%d]", n, lo, hi), sel,
				func(s int32) bool { return d32[s] >= lo && d32[s] <= hi },
				func(sel, out []int32) int { return SelectRangeSparse(d32, lo, hi, sel, out) })
		}
		for _, rg := range ranges64 {
			lo, hi := rg[0], rg[1]
			checkSparse(t, fmt.Sprintf("SelectRangeSparse64 n=%d [%d,%d]", n, lo, hi), sel,
				func(s int32) bool { return d64[s] >= lo && d64[s] <= hi },
				func(sel, out []int32) int { return SelectRangeSparse64(d64, lo, hi, sel, out) })
		}
	}
}

func TestHashMix64UnrolledMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 3, 4, 5, 100} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		out := make([]uint64, n)
		HashMix64Unrolled(keys, out)
		for i, k := range keys {
			if out[i] != hashtable.Mix64(k) {
				t.Fatalf("n=%d index %d: unrolled Mix64 diverges from scalar", n, i)
			}
		}
	}
}
