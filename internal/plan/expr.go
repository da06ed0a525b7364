package plan

import (
	"math"

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

// cmpPred assembles a Pred from a dense and a Sel-consuming selection
// primitive over one base column.
func cmpPred[T ordered](col []T, v T,
	dense func([]T, T, []int32) int,
	sparse func([]T, T, []int32, []int32) int) Pred {
	return Pred{
		Dense:  func(base, n int, res []int32) int { return dense(col[base:base+n], v, res) },
		Sparse: func(base, n int, sel, res []int32) int { return sparse(col[base:base+n], v, sel, res) },
	}
}

// PredGE keeps positions where col >= v.
func PredGE[T ordered](col []T, v T) Pred {
	return cmpPred(col, v, tw.SelGE[T], tw.SelGESel[T])
}

// PredGT keeps positions where col > v.
func PredGT[T ordered](col []T, v T) Pred {
	return cmpPred(col, v, tw.SelGT[T], tw.SelGTSel[T])
}

// PredLE keeps positions where col <= v.
func PredLE[T ordered](col []T, v T) Pred {
	return cmpPred(col, v, tw.SelLE[T], tw.SelLESel[T])
}

// PredLT keeps positions where col < v.
func PredLT[T ordered](col []T, v T) Pred {
	return cmpPred(col, v, tw.SelLT[T], tw.SelLTSel[T])
}

// The 32-bit predicate constructors below route through internal/simd's
// SWAR and unrolled kernels instead of the branchy tw primitives: dense
// conjuncts compare two lanes per word branch-free, sparse conjuncts
// unroll the gathers 4-way. GT and LE reduce to GE and LT by bound
// adjustment, with the int32 extremes degenerating to keep-none /
// keep-all.

// PredLT32 is PredLT over a 32-bit column via the SWAR kernels.
func PredLT32[T ~int32](col []T, v T) Pred {
	return Pred{
		Dense: func(base, n int, res []int32) int {
			return simd.SelectLT(col[base:base+n], v, res)
		},
		Sparse: func(base, n int, sel, res []int32) int {
			return simd.SelectSparseLT(col[base:base+n], v, sel, res)
		},
	}
}

// PredGE32 is PredGE over a 32-bit column via the SWAR kernels.
func PredGE32[T ~int32](col []T, v T) Pred {
	return Pred{
		Dense: func(base, n int, res []int32) int {
			return simd.SelectGE(col[base:base+n], v, res)
		},
		Sparse: func(base, n int, sel, res []int32) int {
			return simd.SelectSparseGE(col[base:base+n], v, sel, res)
		},
	}
}

// PredGT32 keeps col > v: col >= v+1, or nothing when v is the maximum.
func PredGT32[T ~int32](col []T, v T) Pred {
	if int32(v) == math.MaxInt32 {
		return predNone()
	}
	return PredGE32(col, v+1)
}

// PredLE32 keeps col <= v: col < v+1, or everything when v is the
// maximum.
func PredLE32[T ~int32](col []T, v T) Pred {
	if int32(v) == math.MaxInt32 {
		return predAll()
	}
	return PredLT32(col, v+1)
}

// predNone never matches.
func predNone() Pred {
	return Pred{
		Dense:  func(base, n int, res []int32) int { return 0 },
		Sparse: func(base, n int, sel, res []int32) int { return 0 },
	}
}

// predAll matches every position.
func predAll() Pred {
	return Pred{
		Dense: func(base, n int, res []int32) int {
			for i := 0; i < n; i++ {
				res[i] = int32(i)
			}
			return n
		},
		Sparse: func(base, n int, sel, res []int32) int {
			copy(res, sel)
			return len(sel)
		},
	}
}

// PredEq keeps positions where col == v.
func PredEq[T ordered](col []T, v T) Pred {
	return cmpPred(col, v, tw.SelEq[T], tw.SelEqSel[T])
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
