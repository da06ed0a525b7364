package simd

import "paradigms/internal/hashtable"

// Engine-facing kernels: the generic counterparts of the measured study
// kernels in simd.go, wired into the hot filter and hash paths of
// internal/plan and internal/compiled. They are generic over ~int32 so
// named 32-bit column types (types.Date) reuse one instantiation shape,
// and they cover both comparison directions (LT and GE; GT and LE reduce
// to them by bound adjustment at the call site).

// SelectLT writes the positions of data[i] < bound to out and returns
// the count — the SWAR selection of SelectSWAR, generic over ~int32.
// Two lanes are compared per 64-bit word with one subtraction each and
// the compress-store is branch-free.
func SelectLT[T ~int32](data []T, bound T, out []int32) int {
	k := 0
	n := len(data) &^ 1
	// Bias lanes by 2^31 so signed order becomes unsigned order; a lane
	// is below the bound iff the 64-bit difference goes negative.
	b := uint64(uint32(bound) ^ 0x80000000)
	const bias = 0x8000000080000000
	for i := 0; i < n; i += 2 {
		w := (uint64(uint32(data[i])) | uint64(uint32(data[i+1]))<<32) ^ bias
		m0 := ((w & 0xffffffff) - b) >> 63
		m1 := ((w >> 32) - b) >> 63
		out[k] = int32(i)
		k += int(m0)
		out[k] = int32(i + 1)
		k += int(m1)
	}
	for i := n; i < len(data); i++ {
		out[k] = int32(i)
		if data[i] < bound {
			k++
		}
	}
	return k
}

// SelectGE is SelectLT with the borrow mask inverted: positions of
// data[i] >= bound.
func SelectGE[T ~int32](data []T, bound T, out []int32) int {
	k := 0
	n := len(data) &^ 1
	b := uint64(uint32(bound) ^ 0x80000000)
	const bias = 0x8000000080000000
	for i := 0; i < n; i += 2 {
		w := (uint64(uint32(data[i])) | uint64(uint32(data[i+1]))<<32) ^ bias
		m0 := (((w & 0xffffffff) - b) >> 63) ^ 1
		m1 := (((w >> 32) - b) >> 63) ^ 1
		out[k] = int32(i)
		k += int(m0)
		out[k] = int32(i + 1)
		k += int(m1)
	}
	for i := n; i < len(data); i++ {
		out[k] = int32(i)
		if data[i] >= bound {
			k++
		}
	}
	return k
}

// SelectSparseLT narrows a selection vector to positions with
// data[s] < bound — the 4-way unrolled sparse selection of
// SelectSparseUnrolled, generic over ~int32.
func SelectSparseLT[T ~int32](data []T, bound T, sel []int32, out []int32) int {
	k := 0
	n := len(sel) &^ 3
	for i := 0; i < n; i += 4 {
		s0, s1, s2, s3 := sel[i], sel[i+1], sel[i+2], sel[i+3]
		v0, v1, v2, v3 := data[s0], data[s1], data[s2], data[s3]
		out[k] = s0
		if v0 < bound {
			k++
		}
		out[k] = s1
		if v1 < bound {
			k++
		}
		out[k] = s2
		if v2 < bound {
			k++
		}
		out[k] = s3
		if v3 < bound {
			k++
		}
	}
	for i := n; i < len(sel); i++ {
		out[k] = sel[i]
		if data[sel[i]] < bound {
			k++
		}
	}
	return k
}

// SelectSparseGE is SelectSparseLT for data[s] >= bound.
func SelectSparseGE[T ~int32](data []T, bound T, sel []int32, out []int32) int {
	k := 0
	n := len(sel) &^ 3
	for i := 0; i < n; i += 4 {
		s0, s1, s2, s3 := sel[i], sel[i+1], sel[i+2], sel[i+3]
		v0, v1, v2, v3 := data[s0], data[s1], data[s2], data[s3]
		out[k] = s0
		if v0 >= bound {
			k++
		}
		out[k] = s1
		if v1 >= bound {
			k++
		}
		out[k] = s2
		if v2 >= bound {
			k++
		}
		out[k] = s3
		if v3 >= bound {
			k++
		}
	}
	for i := n; i < len(sel); i++ {
		out[k] = sel[i]
		if data[sel[i]] >= bound {
			k++
		}
	}
	return k
}

// SelectRange writes the positions of lo <= data[i] <= hi to out and
// returns the count, branch-free and 4-way unrolled. The inclusive range
// check compiles to one subtract and one unsigned compare per lane
// (v in [lo,hi] iff uint32(v-lo) <= uint32(hi-lo), valid for any signed
// lo <= hi under two's-complement wraparound) — the first stage of the
// compiled backend's block-staged filter. Requires lo <= hi.
func SelectRange[T ~int32](data []T, lo, hi T, out []int32) int {
	k := 0
	span := uint32(int32(hi) - int32(lo))
	l := int32(lo)
	n := len(data) &^ 3
	for i := 0; i < n; i += 4 {
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
	for i := n; i < len(data); i++ {
		out[k] = int32(i)
		if uint32(int32(data[i])-l) <= span {
			k++
		}
	}
	return k
}

// SelectRange64 is SelectRange over a 64-bit column (uint64(v-lo) <=
// uint64(hi-lo)). Requires lo <= hi.
func SelectRange64(data []int64, lo, hi int64, out []int32) int {
	k := 0
	span := uint64(hi - lo)
	for i, v := range data {
		out[k] = int32(i)
		if uint64(v-lo) <= span {
			k++
		}
	}
	return k
}

// SelectRangeSparse narrows the selection vector sel to the positions
// with lo <= data[s] <= hi, branch-free — the further conjuncts of a
// staged range cascade. out may alias sel (narrowing in place).
// Requires lo <= hi.
func SelectRangeSparse[T ~int32](data []T, lo, hi T, sel, out []int32) int {
	k := 0
	span := uint32(int32(hi) - int32(lo))
	l := int32(lo)
	for _, s := range sel {
		out[k] = s
		if uint32(int32(data[s])-l) <= span {
			k++
		}
	}
	return k
}

// SelectRangeSparse64 is SelectRangeSparse over a 64-bit column.
func SelectRangeSparse64(data []int64, lo, hi int64, sel, out []int32) int {
	k := 0
	span := uint64(hi - lo)
	for _, s := range sel {
		out[k] = s
		if uint64(data[s]-lo) <= span {
			k++
		}
	}
	return k
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
