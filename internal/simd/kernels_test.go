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

// nearData draws int32 values that land on, inside and just outside
// small ranges, plus the type's extremes.
func nearData(r *rand.Rand, n int) []int32 {
	data := randData(r, n)
	for i := range data {
		if r.Intn(2) == 0 {
			data[i] = int32(r.Intn(17) - 8)
		}
	}
	return data
}

func nearData64(r *rand.Rand, n int) []int64 {
	data := randData64(r, n)
	for i := range data {
		if r.Intn(2) == 0 {
			data[i] = int64(r.Intn(17) - 8)
		}
	}
	return data
}

// onGoPath runs f with the Go kernels forced.
func onGoPath(f func() int) int {
	defer func(saved bool) { useAVX512 = saved }(useAVX512)
	useAVX512 = false
	return f()
}

// TestRangeKernelsMatchGoPath runs each range kernel on the path chosen
// at init and on the forced Go path, side by side: lengths around the
// 8- and 16-lane blocks, the int32 and int64 extremes as bounds, empty,
// full and gapped selections, and out aliasing sel. On a CPU without
// AVX-512 both sides are the Go kernels, and the oracle still checks
// them.
func TestRangeKernelsMatchGoPath(t *testing.T) {
	if useAVX512 {
		t.Log("path: AVX-512 assembly against the Go kernels")
	} else {
		t.Log("path: Go kernels only (no AVX-512 on this CPU)")
	}
	r := rand.New(rand.NewSource(29))
	ranges32 := [][2]int32{
		{math.MinInt32, math.MaxInt32},
		{math.MinInt32, math.MinInt32},
		{math.MaxInt32, math.MaxInt32},
		{math.MinInt32, -1},
		{0, math.MaxInt32},
		{-3, 3},
		{0, 0},
	}
	ranges64 := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, -1},
		{0, math.MaxInt64},
		{-3, 3},
		{0, 0},
	}
	// same compares a kernel's positions on both paths and against want.
	same := func(name string, want []int32, kernel func(out []int32) int, size int) {
		t.Helper()
		got, ref := make([]int32, size), make([]int32, size)
		k := kernel(got)
		kg := onGoPath(func() int { return kernel(ref) })
		if !equalSel(want, ref[:kg], kg) {
			t.Fatalf("%s on the Go path: got %d positions, want %d", name, kg, len(want))
		}
		if !equalSel(want, got[:k], k) {
			t.Fatalf("%s: got %d positions, want %d (Go path agrees with the oracle)", name, k, len(want))
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 1023, 1024, 1025, 4099} {
		d32, d64 := nearData(r, n), nearData64(r, n)
		full := make([]int32, n)
		for i := range full {
			full[i] = int32(i)
		}
		sels := map[string][]int32{"empty": nil, "full": full, "gapped": randSel(r, n)}
		for _, rg := range ranges32 {
			lo, hi := rg[0], rg[1]
			keep := func(s int32) bool { return d32[s] >= lo && d32[s] <= hi }
			name := fmt.Sprintf("SelectRange n=%d [%d,%d]", n, lo, hi)
			same(name, filterSel(full, keep), func(out []int32) int { return SelectRange(d32, lo, hi, out) }, n)
			for sn, sel := range sels {
				want := filterSel(sel, keep)
				name := fmt.Sprintf("SelectRangeSparse n=%d %s sel [%d,%d]", n, sn, lo, hi)
				same(name, want, func(out []int32) int { return SelectRangeSparse(d32, lo, hi, sel, out) }, len(sel))
				same(name+" in place", want, func(out []int32) int {
					copy(out, sel)
					return SelectRangeSparse(d32, lo, hi, out, out)
				}, len(sel))
			}
		}
		for _, rg := range ranges64 {
			lo, hi := rg[0], rg[1]
			keep := func(s int32) bool { return d64[s] >= lo && d64[s] <= hi }
			name := fmt.Sprintf("SelectRange64 n=%d [%d,%d]", n, lo, hi)
			same(name, filterSel(full, keep), func(out []int32) int { return SelectRange64(d64, lo, hi, out) }, n)
			for sn, sel := range sels {
				want := filterSel(sel, keep)
				name := fmt.Sprintf("SelectRangeSparse64 n=%d %s sel [%d,%d]", n, sn, lo, hi)
				same(name, want, func(out []int32) int { return SelectRangeSparse64(d64, lo, hi, sel, out) }, len(sel))
				same(name+" in place", want, func(out []int32) int {
					copy(out, sel)
					return SelectRangeSparse64(d64, lo, hi, out, out)
				}, len(sel))
			}
		}
	}
}

// filterSel is the scalar oracle of a sparse selection.
func filterSel(sel []int32, keep func(int32) bool) []int32 {
	var out []int32
	for _, s := range sel {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// BenchmarkRangeKernels times one 1024-row block of each range kernel
// on the Go path and, where the CPU has it, on the AVX-512 path: dense
// at 40% selectivity, sparse over a 40% selection.
func BenchmarkRangeKernels(b *testing.B) {
	const n = 1024
	r := rand.New(rand.NewSource(31))
	d32, d64 := make([]int32, n), make([]int64, n)
	for i := range d32 {
		d32[i] = int32(r.Intn(1000))
		d64[i] = int64(d32[i])
	}
	var sel []int32
	for i := 0; i < n; i++ {
		if r.Intn(5) < 2 {
			sel = append(sel, int32(i))
		}
	}
	out := make([]int32, n)
	kernels := []struct {
		name string
		run  func() int
	}{
		{"dense32", func() int { return SelectRange(d32, 0, 399, out) }},
		{"dense64", func() int { return SelectRange64(d64, 0, 399, out) }},
		{"sparse32", func() int { return SelectRangeSparse(d32, 0, 399, sel, out) }},
		{"sparse64", func() int { return SelectRangeSparse64(d64, 0, 399, sel, out) }},
	}
	for _, kn := range kernels {
		b.Run(kn.name+"/go", func(b *testing.B) {
			onGoPath(func() int {
				for i := 0; i < b.N; i++ {
					kn.run()
				}
				return 0
			})
		})
		if useAVX512 {
			b.Run(kn.name+"/avx512", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kn.run()
				}
			})
		}
	}
}

// TestSparseKernelsPanicOutsideData pins that a selection reaching past
// data panics on either path, as an index would, instead of gathering
// from beyond the column.
func TestSparseKernelsPanicOutsideData(t *testing.T) {
	d32, d64 := make([]int32, 16), make([]int64, 16)
	sel := make([]int32, 16)
	for i := range sel {
		sel[i] = int32(i + 1) // the last position is len(data)
	}
	out := make([]int32, 16)
	for _, tc := range []struct {
		name   string
		kernel func() int
	}{
		{"SelectRangeSparse", func() int { return SelectRangeSparse(d32, 0, 1, sel, out) }},
		{"SelectRangeSparse64", func() int { return SelectRangeSparse64(d64, 0, 1, sel, out) }},
	} {
		for _, goPath := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (Go path %v): no panic on a position past data", tc.name, goPath)
					}
				}()
				if goPath {
					onGoPath(tc.kernel)
				} else {
					tc.kernel()
				}
			}()
		}
	}
}
