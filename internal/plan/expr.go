package plan

import (
	"paradigms/internal/simd"
	"paradigms/internal/tw"
)

// Vector expressions: closures built once per worker at plan-build time
// that evaluate a derived vector for a batch using tw primitives. An
// expression either fills the caller-provided scratch buffer or returns
// an already-materialized buffer it captured (zero copies either way).

// VecU64 evaluates a uint64 vector (keys, packed payloads) of length K.
type VecU64 func(b *Batch, scratch []uint64) []uint64

// VecI64 evaluates an int64 vector (aggregate inputs) of length K.
type VecI64 func(b *Batch, scratch []int64) []int64

// ordered mirrors the tw primitives' type constraint.
type ordered interface {
	~int8 | ~int32 | ~int64 | ~uint32 | ~uint64
}

// KeyWiden widens a 32-bit base column to 64-bit keys through the
// batch's selection.
func KeyWiden[T ~int32 | ~uint32](col []T) VecU64 {
	return func(b *Batch, scratch []uint64) []uint64 {
		w := window(col, b)
		if b.Sel == nil {
			tw.MapWiden(w, b.K, scratch)
		} else {
			tw.MapWidenSel(w, b.Sel[:b.K], scratch)
		}
		return scratch
	}
}

// KeyPack2x32 packs two 32-bit base columns into keys (lo | hi<<32).
func KeyPack2x32[T ~int32, U ~int32](lo []T, hi []U) VecU64 {
	return func(b *Batch, scratch []uint64) []uint64 {
		lw, hw := window(lo, b), window(hi, b)
		if b.Sel == nil {
			tw.MapPack2x32(lw, hw, b.K, scratch)
		} else {
			tw.MapPack2x32Sel(lw, hw, b.Sel[:b.K], scratch)
		}
		return scratch
	}
}

// FromU64 serves an already-computed derived vector (e.g. a probe
// gather) as an expression.
func FromU64(v []uint64) VecU64 {
	return func(b *Batch, _ []uint64) []uint64 { return v }
}

// FromI64 is FromU64 for int64 vectors.
func FromI64(v []int64) VecI64 {
	return func(b *Batch, _ []int64) []int64 { return v }
}

// U64FromI64 re-types a derived int64 vector as uint64 words (hash-table
// payload scatter of a gathered aggregate, e.g. Q18's sum(qty)).
func U64FromI64(v []int64) VecU64 {
	return func(b *Batch, scratch []uint64) []uint64 {
		tw.MapU64FromI64(v, b.K, scratch)
		return scratch
	}
}

// ColI64 materializes an int64-width base column through the selection.
func ColI64[T ~int64](col []T) VecI64 {
	return func(b *Batch, scratch []int64) []int64 {
		w := window(col, b)
		if b.Sel == nil {
			tw.MapCopyI64(w, b.K, scratch)
		} else {
			tw.FetchI64(w, b.Sel[:b.K], scratch)
		}
		return scratch
	}
}

// ColU64FromI64 materializes an int64-width base column as uint64 words.
func ColU64FromI64[T ~int64](col []T) VecU64 {
	return func(b *Batch, scratch []uint64) []uint64 {
		w := window(col, b)
		if b.Sel == nil {
			tw.MapU64FromI64(w, b.K, scratch)
		} else {
			tw.MapU64FromI64Sel(w, b.Sel[:b.K], scratch)
		}
		return scratch
	}
}

// PackU64LoHi packs two derived uint64 vectors into group keys
// (uint32(lo) | hi<<32).
func PackU64LoHi(lo, hi []uint64) VecU64 {
	return func(b *Batch, scratch []uint64) []uint64 {
		tw.MapPackU64LoHi(lo, hi, b.K, scratch)
		return scratch
	}
}

// ---------------------------------------------------------------------
// Predicate constructors (FilterChain conjuncts)
// ---------------------------------------------------------------------

// predNone never matches.
func predNone() Pred {
	return Pred{
		Dense:  func(base, n int, res []int32) int { return 0 },
		Sparse: func(base, n int, sel, res []int32) int { return 0 },
	}
}

// PredRange32 keeps lo <= col <= hi over a 32-bit column through
// internal/simd's range kernels (AVX-512 where the CPU has it): the
// dense form compresses block positions, the sparse form gathers
// through sel. A comparison against a literal is the range up to the
// type's extreme; an empty range (lo > hi) matches nothing.
func PredRange32[T ~int32](col []T, lo, hi T) Pred {
	if lo > hi {
		return predNone()
	}
	return Pred{
		Dense: func(base, n int, res []int32) int {
			return simd.SelectRange(col[base:base+n], lo, hi, res)
		},
		Sparse: func(base, n int, sel, res []int32) int {
			return simd.SelectRangeSparse(col[base:base+n], lo, hi, sel, res)
		},
	}
}

// PredRange64 is PredRange32 over a 64-bit column (Int64, Numeric).
func PredRange64[T ~int64](col []T, lo, hi T) Pred {
	if lo > hi {
		return predNone()
	}
	return Pred{
		Dense: func(base, n int, res []int32) int {
			return simd.SelectRange64(col[base:base+n], lo, hi, res)
		},
		Sparse: func(base, n int, sel, res []int32) int {
			return simd.SelectRangeSparse64(col[base:base+n], lo, hi, sel, res)
		},
	}
}

// PredEq keeps positions where col == v.
func PredEq[T ordered](col []T, v T) Pred {
	return Pred{
		Dense:  func(base, n int, res []int32) int { return tw.SelEq(col[base:base+n], v, res) },
		Sparse: func(base, n int, sel, res []int32) int { return tw.SelEqSel(col[base:base+n], v, sel, res) },
	}
}

// PredLUT keeps positions where lut[col] (tiny-dimension semi-join).
func PredLUT[T ~int32](col []T, lut []bool) Pred {
	return Pred{
		Dense: func(base, n int, res []int32) int {
			return tw.SelLUT(col[base:base+n], lut, res)
		},
		Sparse: func(base, n int, sel, res []int32) int {
			return tw.SelLUTSel(col[base:base+n], lut, sel, res)
		},
	}
}
