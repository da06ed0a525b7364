package simd

import (
	"unsafe"

	"paradigms/internal/hashtable"
)

// Engine-facing kernels: the range selections every filter of both
// engines runs (internal/plan's range predicates, internal/compiled's
// block stage) and the hybrid's join hash. The selections are generic
// over ~int32 or ~int64 so named column types (types.Date,
// types.Numeric) reuse one instantiation shape; a comparison against a
// literal is the range up to the type's extreme.

// SelectRange writes the positions of lo <= data[i] <= hi to out and
// returns the count. The inclusive range check is one subtract and one
// unsigned compare per lane (v in [lo,hi] iff uint32(v-lo) <=
// uint32(hi-lo), valid for any signed lo <= hi under two's-complement
// wraparound). On a CPU with AVX-512 the 16-lane blocks run in assembly
// (compare into a lane mask, compress the block's positions); the rest,
// and every block elsewhere, runs the branch-free 4-way unrolled Go
// loop. It is the first stage of the compiled backend's block-staged
// filter and every 32-bit range or comparison conjunct of Tectorwise.
// Requires lo <= hi; out must have room for len(data) positions.
func SelectRange[T ~int32](data []T, lo, hi T, out []int32) int {
	i, k := 0, 0
	if useAVX512 && len(data) >= 16 {
		i = len(data) &^ 15
		k = selectRangeAVX512(int32s(data[:i]), int32(lo), int32(hi), out[:i])
	}
	span := uint32(int32(hi) - int32(lo))
	l := int32(lo)
	for n := i + (len(data)-i)&^3; i < n; i += 4 {
		v0, v1, v2, v3 := int32(data[i]), int32(data[i+1]), int32(data[i+2]), int32(data[i+3])
		out[k] = int32(i)
		if uint32(v0-l) <= span {
			k++
		}
		out[k] = int32(i + 1)
		if uint32(v1-l) <= span {
			k++
		}
		out[k] = int32(i + 2)
		if uint32(v2-l) <= span {
			k++
		}
		out[k] = int32(i + 3)
		if uint32(v3-l) <= span {
			k++
		}
	}
	for ; i < len(data); i++ {
		out[k] = int32(i)
		if uint32(int32(data[i])-l) <= span {
			k++
		}
	}
	return k
}

// SelectRange64 is SelectRange over a 64-bit column (uint64(v-lo) <=
// uint64(hi-lo)), 8 lanes per assembly block. Requires lo <= hi; out
// must have room for len(data) positions.
func SelectRange64[T ~int64](data []T, lo, hi T, out []int32) int {
	i, k := 0, 0
	if useAVX512 && len(data) >= 8 {
		i = len(data) &^ 7
		k = selectRange64AVX512(int64s(data[:i]), int64(lo), int64(hi), out[:i])
	}
	span := uint64(hi - lo)
	for ; i < len(data); i++ {
		out[k] = int32(i)
		if uint64(data[i]-lo) <= span {
			k++
		}
	}
	return k
}

// SelectRangeSparse narrows the selection vector sel to the positions
// with lo <= data[s] <= hi, branch-free — the further conjuncts of a
// staged range cascade. The assembly blocks gather data[s] for 16
// positions at once. sel ascends, as every selection vector does, and
// its positions index data. out may alias sel (narrowing in place);
// otherwise it must have room for len(sel) positions. Requires lo <= hi.
func SelectRangeSparse[T ~int32](data []T, lo, hi T, sel, out []int32) int {
	i, k := 0, 0
	if useAVX512 && len(sel) >= 16 {
		i = len(sel) &^ 15
		_ = data[sel[i-1]] // sel ascends: its last position bounds the gathers
		k = selectRangeSparseAVX512(int32s(data), int32(lo), int32(hi), sel[:i], out[:i])
	}
	span := uint32(int32(hi) - int32(lo))
	l := int32(lo)
	for _, s := range sel[i:] {
		out[k] = s
		if uint32(int32(data[s])-l) <= span {
			k++
		}
	}
	return k
}

// SelectRangeSparse64 is SelectRangeSparse over a 64-bit column, 8
// gathered lanes per assembly block.
func SelectRangeSparse64[T ~int64](data []T, lo, hi T, sel, out []int32) int {
	i, k := 0, 0
	if useAVX512 && len(sel) >= 8 {
		i = len(sel) &^ 7
		_ = data[sel[i-1]] // sel ascends: its last position bounds the gathers
		k = selectRangeSparse64AVX512(int64s(data), int64(lo), int64(hi), sel[:i], out[:i])
	}
	span := uint64(hi - lo)
	for _, s := range sel[i:] {
		out[k] = s
		if uint64(data[s]-lo) <= span {
			k++
		}
	}
	return k
}

// int32s and int64s view a named column type's slice as its underlying
// integer slice, for the assembly kernels.
func int32s[T ~int32](s []T) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

func int64s[T ~int64 | ~uint64](s []T) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// HashMix64Unrolled hashes four keys per iteration with the Mix64
// finalizer (the compiled backend's hash), overlapping the independent
// multiply chains like HashUnrolled does for Murmur2. The hybrid
// executor uses it to build and probe cross-engine join tables with one
// hash function on both backends.
func HashMix64Unrolled(keys []uint64, out []uint64) {
	n := len(keys) &^ 3
	for i := 0; i < n; i += 4 {
		out[i] = hashtable.Mix64(keys[i])
		out[i+1] = hashtable.Mix64(keys[i+1])
		out[i+2] = hashtable.Mix64(keys[i+2])
		out[i+3] = hashtable.Mix64(keys[i+3])
	}
	for i := n; i < len(keys); i++ {
		out[i] = hashtable.Mix64(keys[i])
	}
}
