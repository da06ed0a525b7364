package simd

// useAVX512 selects the assembly range kernels: set once at package
// init from CPUID and XGETBV. The in-package tests clear it to compare
// the Go kernels against the assembly on the same inputs.
var useAVX512 = hasAVX512()

// AVX512 reports whether the range kernels run in AVX-512 assembly.
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
