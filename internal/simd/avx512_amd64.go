package simd

// useAVX512 selects the assembly range and membership kernels: set once at package
// init from CPUID and XGETBV. The in-package tests clear it to compare
// the Go kernels against the assembly on the same inputs.
var useAVX512 = hasAVX512()

// AVX512 reports whether the range and membership kernels run in
// AVX-512 assembly.
func AVX512() bool { return useAVX512 }

// hasAVX512 reports whether the CPU has AVX-512F and AVX-512VL, the OS
// saves the opmask and ZMM state, and POPCNT is present.
func hasAVX512() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, popcnt = 1 << 27, 1 << 23
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&popcnt == 0 {
		return false
	}
	// XCR0 bits 1-2 (XMM, YMM) and 5-7 (opmask, ZMM0-15 upper halves,
	// ZMM16-31).
	const zmmState = 0xe6
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512vl = 1 << 16, 1 << 31
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512vl != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// The kernels below take a length that is a multiple of their lane
// count (16 for int32 data, 8 for int64) and an out slice with room for
// every position of the input.

//go:noescape
func selectRangeAVX512(data []int32, lo, hi int32, out []int32) int

//go:noescape
func selectRange64AVX512(data []int64, lo, hi int64, out []int32) int

//go:noescape
func selectRangeSparseAVX512(data []int32, lo, hi int32, sel, out []int32) int

//go:noescape
func selectRangeSparse64AVX512(data []int64, lo, hi int64, sel, out []int32) int

// The membership kernels take a length that is a multiple of 8 and a
// non-empty word array; each tests key word k as
// (k-min) < len(words)<<shift && words[(k-min)>>shift]>>((k-min)&bit)&test != 0.

//go:noescape
func membersAVX512(keys []int32, words []uint64, min, shift, bit, test uint64, out []int32) int

//go:noescape
func members64AVX512(keys []int64, words []uint64, min, shift, bit, test uint64, out []int32) int

//go:noescape
func membersSparseAVX512(keys []int32, words []uint64, min, shift, bit, test uint64, sel, out []int32) int

//go:noescape
func membersSparse64AVX512(keys []int64, words []uint64, min, shift, bit, test uint64, sel, out []int32) int
