//go:build !amd64

package simd

// useAVX512 is false off amd64: every range and membership kernel runs
// its Go loop.
var useAVX512 = false

// AVX512 reports whether the range and membership kernels run in
// AVX-512 assembly.
func AVX512() bool { return useAVX512 }

func selectRangeAVX512(data []int32, lo, hi int32, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}

func selectRange64AVX512(data []int64, lo, hi int64, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}

func selectRangeSparseAVX512(data []int32, lo, hi int32, sel, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}

func selectRangeSparse64AVX512(data []int64, lo, hi int64, sel, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}

func membersAVX512(keys []int32, words []uint64, min, shift, bit, test uint64, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}

func members64AVX512(keys []int64, words []uint64, min, shift, bit, test uint64, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}

func membersSparseAVX512(keys []int32, words []uint64, min, shift, bit, test uint64, sel, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}

func membersSparse64AVX512(keys []int64, words []uint64, min, shift, bit, test uint64, sel, out []int32) int {
	panic("simd: AVX-512 kernel called off amd64")
}
