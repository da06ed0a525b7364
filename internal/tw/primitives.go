package tw

import (
	"bytes"

	"paradigms/internal/hashtable"
	"paradigms/internal/storage"
)

// Vectorized primitives. Naming follows VectorWise conventions:
//   Sel*    selection: emit positions of qualifying tuples
//   *Sel    variant consuming an input selection vector (sparse access)
//   Map*    projection: compute an output vector
//   Hash*   hash an input vector
//   Gather* move values out of hash-table entries into dense vectors
//   Fetch*  move values out of base columns through a position vector
//
// Selection primitives use predicated (branch-free-style) evaluation:
// the result position is always stored and the output cursor advances
// conditionally (§2.1: "*res = i; res += cond").
//
// Type specialization is expressed with Go generics instantiated at
// compile time: each instantiation is one type-specialized primitive, so
// constraint (i) — one primitive works on one data type — holds exactly
// as in a hand-expanded primitive library.

type ordered interface {
	~int8 | ~int32 | ~int64 | ~uint32 | ~uint64
}

// SelGE emits positions i (0-based within the vector) where col[i] >= v.
func SelGE[T ordered](col []T, v T, res []int32) int {
	k := 0
	for i := 0; i < len(col); i++ {
		res[k] = int32(i)
		if col[i] >= v {
			k++
		}
	}
	return k
}

// SelGESel is SelGE over the positions in sel.
func SelGESel[T ordered](col []T, v T, sel []int32, res []int32) int {
	k := 0
	for _, s := range sel {
		res[k] = s
		if col[s] >= v {
			k++
		}
	}
	return k
}

// SelLT emits positions where col[i] < v.
func SelLT[T ordered](col []T, v T, res []int32) int {
	k := 0
	for i := 0; i < len(col); i++ {
		res[k] = int32(i)
		if col[i] < v {
			k++
		}
	}
	return k
}

// SelLTSel is SelLT over the positions in sel.
func SelLTSel[T ordered](col []T, v T, sel []int32, res []int32) int {
	k := 0
	for _, s := range sel {
		res[k] = s
		if col[s] < v {
			k++
		}
	}
	return k
}

// SelLE emits positions where col[i] <= v.
func SelLE[T ordered](col []T, v T, res []int32) int {
	k := 0
	for i := 0; i < len(col); i++ {
		res[k] = int32(i)
		if col[i] <= v {
			k++
		}
	}
	return k
}

// SelLESel is SelLE over the positions in sel.
func SelLESel[T ordered](col []T, v T, sel []int32, res []int32) int {
	k := 0
	for _, s := range sel {
		res[k] = s
		if col[s] <= v {
			k++
		}
	}
	return k
}

// SelEq emits positions where col[i] == v.
func SelEq[T ordered](col []T, v T, res []int32) int {
	k := 0
	for i := 0; i < len(col); i++ {
		res[k] = int32(i)
		if col[i] == v {
			k++
		}
	}
	return k
}

// SelEqSel is SelEq over the positions in sel.
func SelEqSel[T ordered](col []T, v T, sel []int32, res []int32) int {
	k := 0
	for _, s := range sel {
		res[k] = s
		if col[s] == v {
			k++
		}
	}
	return k
}

// SelRangeSel emits positions where lo <= col[i] <= hi, over sel.
func SelRangeSel[T ordered](col []T, lo, hi T, sel []int32, res []int32) int {
	k := 0
	for _, s := range sel {
		res[k] = s
		if col[s] >= lo && col[s] <= hi {
			k++
		}
	}
	return k
}

// SelLUT emits positions where lut[col[i]] — a semi-join against a tiny
// dimension folded into a lookup table (e.g. Q5's nation-in-region set).
func SelLUT[T ~int32](col []T, lut []bool, res []int32) int {
	k := 0
	for i := 0; i < len(col); i++ {
		res[k] = int32(i)
		if lut[col[i]] {
			k++
		}
	}
	return k
}

// SelLUTSel is SelLUT over the positions in sel.
func SelLUTSel[T ~int32](col []T, lut []bool, sel []int32, res []int32) int {
	k := 0
	for _, s := range sel {
		res[k] = s
		if lut[col[s]] {
			k++
		}
	}
	return k
}

// SelEqCols emits dense positions i where a[i] == b[i] (a join residual
// over two gathered vectors, e.g. Q5's c_nationkey = s_nationkey).
func SelEqCols(a, b []uint64, n int, res []int32) int {
	k := 0
	for i := 0; i < n; i++ {
		res[k] = int32(i)
		if a[i] == b[i] {
			k++
		}
	}
	return k
}

// SelEqString emits positions (offset by base into the heap) whose string
// equals v.
func SelEqString(heap *storage.StringHeap, base, n int, v string, res []int32) int {
	k := 0
	for i := 0; i < n; i++ {
		res[k] = int32(i)
		if string(heap.Get(base+i)) == v {
			k++
		}
	}
	return k
}

// SelContainsString emits positions whose string contains needle.
func SelContainsString(heap *storage.StringHeap, base, n int, needle []byte, res []int32) int {
	k := 0
	for i := 0; i < n; i++ {
		res[k] = int32(i)
		if bytes.Contains(heap.Get(base+i), needle) {
			k++
		}
	}
	return k
}

// MapHash hashes col[i] for the dense vector, widening to uint64.
func MapHash[T ~int32 | ~uint32](col []T, res []uint64) {
	for i := 0; i < len(col); i++ {
		res[i] = Hash(uint64(uint32(col[i])))
	}
}

// MapHashSel hashes col[s] for s in sel, producing a dense hash vector
// aligned with sel.
func MapHashSel[T ~int32 | ~uint32](col []T, sel []int32, res []uint64) {
	for i, s := range sel {
		res[i] = Hash(uint64(uint32(col[s])))
	}
}

// MapHashU64 hashes a dense vector of already-packed 64-bit keys,
// 4-way unrolled so the independent multiply chains overlap (the ILP
// form of vectorized hashing — §5, Fig. 8a). The hash function is read
// once per call so the engine-wide Hash variable stays swappable (the
// hash-function ablation benchmark relies on this).
func MapHashU64(keys []uint64, res []uint64) {
	h := Hash
	n := len(keys) &^ 3
	for i := 0; i < n; i += 4 {
		res[i] = h(keys[i])
		res[i+1] = h(keys[i+1])
		res[i+2] = h(keys[i+2])
		res[i+3] = h(keys[i+3])
	}
	for i := n; i < len(keys); i++ {
		res[i] = h(keys[i])
	}
}

// MapPack2x32Sel packs two 32-bit columns into packed 64-bit keys
// (lo | hi<<32) through a selection vector.
func MapPack2x32Sel[T ~int32, U ~int32](loCol []T, hiCol []U, sel []int32, res []uint64) {
	for i, s := range sel {
		res[i] = uint64(uint32(loCol[s])) | uint64(uint32(hiCol[s]))<<32
	}
}

// MapPack2x32 is the dense variant of MapPack2x32Sel.
func MapPack2x32[T ~int32, U ~int32](loCol []T, hiCol []U, n int, res []uint64) {
	for i := 0; i < n; i++ {
		res[i] = uint64(uint32(loCol[i])) | uint64(uint32(hiCol[i]))<<32
	}
}

// MapWiden widens an ordered column to uint64 keys through sel.
func MapWidenSel[T ~int32 | ~uint32](col []T, sel []int32, res []uint64) {
	for i, s := range sel {
		res[i] = uint64(uint32(col[s]))
	}
}

// MapWiden widens a dense ordered column to uint64 keys.
func MapWiden[T ~int32 | ~uint32](col []T, n int, res []uint64) {
	for i := 0; i < n; i++ {
		res[i] = uint64(uint32(col[i]))
	}
}

// MapRsubConst computes res[i] = c - col[i] (e.g. 100 - discount).
func MapRsubConst[T ~int64](col []T, c int64, n int, res []int64) {
	for i := 0; i < n; i++ {
		res[i] = c - int64(col[i])
	}
}

// MapRsubConstSel computes res[i] = c - col[sel[i]], densifying.
func MapRsubConstSel[T ~int64](col []T, c int64, sel []int32, res []int64) {
	for i, s := range sel {
		res[i] = c - int64(col[s])
	}
}

// MapAddConst computes res[i] = c + col[i].
func MapAddConst[T ~int64](col []T, c int64, n int, res []int64) {
	for i := 0; i < n; i++ {
		res[i] = c + int64(col[i])
	}
}

// MapMul computes res[i] = a[i] * b[i] over dense vectors.
func MapMul(a, b []int64, n int, res []int64) {
	for i := 0; i < n; i++ {
		res[i] = a[i] * b[i]
	}
}

// MapMulColsSel computes res[i] = a[sel[i]] * b[sel[i]] (sparse × sparse).
func MapMulColsSel[T ~int64, U ~int64](a []T, b []U, sel []int32, res []int64) {
	for i, s := range sel {
		res[i] = int64(a[s]) * int64(b[s])
	}
}

// MapMulCols computes res[i] = a[i] * b[i] over dense column windows.
func MapMulCols[T ~int64, U ~int64](a []T, b []U, n int, res []int64) {
	for i := 0; i < n; i++ {
		res[i] = int64(a[i]) * int64(b[i])
	}
}

// MapU64FromI64 re-types a dense int64-width vector as uint64 words
// (payload scatter of signed values).
func MapU64FromI64[T ~int64](col []T, n int, res []uint64) {
	for i := 0; i < n; i++ {
		res[i] = uint64(int64(col[i]))
	}
}

// MapU64FromI64Sel densifies an int64-width column as uint64 words
// through a selection vector.
func MapU64FromI64Sel[T ~int64](col []T, sel []int32, res []uint64) {
	for i, s := range sel {
		res[i] = uint64(int64(col[s]))
	}
}

// MapSub computes res[i] = a[i] - b[i].
func MapSub(a, b []int64, n int, res []int64) {
	for i := 0; i < n; i++ {
		res[i] = a[i] - b[i]
	}
}

// FetchI64 densifies an int64-width column through positions.
func FetchI64[T ~int64](col []T, pos []int32, res []int64) {
	for i, s := range pos {
		res[i] = int64(col[s])
	}
}

// ComposePos composes two position vectors: res[i] = outer[inner[i]].
// Used to map match positions of a second join back to base-window
// positions.
func ComposePos(outer, inner []int32, res []int32) {
	for i, s := range inner {
		res[i] = outer[s]
	}
}

// FetchU64 densifies a uint64 vector through positions.
func FetchU64(vals []uint64, pos []int32, res []uint64) {
	for i, s := range pos {
		res[i] = vals[s]
	}
}

// MapPack2x8Sel packs two byte columns into keys (a<<8 | b) through sel.
func MapPack2x8Sel(a, b []byte, sel []int32, res []uint64) {
	for i, s := range sel {
		res[i] = uint64(a[s])<<8 | uint64(b[s])
	}
}

// MapCopyI64 materializes an int64-width column window into a dense
// vector (identity projection — the explicit copy is the vectorized
// engine's materialization cost).
func MapCopyI64[T ~int64](col []T, n int, res []int64) {
	for i := 0; i < n; i++ {
		res[i] = int64(col[i])
	}
}

// MapYearSel extracts the calendar year of dates[sel[i]].
func MapYearSel[T ~int32](dates []T, sel []int32, res []int64) {
	for i, s := range sel {
		res[i] = int64(yearOfDays(int32(dates[s])))
	}
}

// yearOfDays computes the Gregorian year for days since 1970-01-01
// (matches types.Date.Year; duplicated so the primitive is
// self-contained and inlinable).
func yearOfDays(z32 int32) int {
	z := int(z32) + 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	if mp >= 10 {
		return y + 1
	}
	return y
}

// MapPackLoHi packs res[i] = uint32(lo[i]) | hi[i]<<32.
func MapPackLoHi(lo []int64, hi []uint64, n int, res []uint64) {
	for i := 0; i < n; i++ {
		res[i] = uint64(uint32(lo[i])) | hi[i]<<32
	}
}

// MapPackU64LoHi packs res[i] = uint32(lo[i]) | hi[i]<<32 over two
// uint64 vectors (group keys built from gathered dimension payloads).
func MapPackU64LoHi(lo, hi []uint64, n int, res []uint64) {
	for i := 0; i < n; i++ {
		res[i] = uint64(uint32(lo[i])) | hi[i]<<32
	}
}

// MapPack3 packs res[i] = a[i]<<40 | b[i]<<32 | uint32(c[i]) (SSB Q3.1's
// (c_nation, s_nation, year) group key).
func MapPack3(a, b, c []uint64, n int, res []uint64) {
	for i := 0; i < n; i++ {
		res[i] = a[i]<<40 | b[i]<<32 | uint64(uint32(c[i]))
	}
}

// SumI64 reduces a dense vector to its sum.
func SumI64(vals []int64, n int) int64 {
	var sum int64
	for i := 0; i < n; i++ {
		sum += vals[i]
	}
	return sum
}

// GatherWord gathers payload word w of each entry into res.
func GatherWord(ht *hashtable.Table, refs []hashtable.Ref, w int, n int, res []uint64) {
	for i := 0; i < n; i++ {
		res[i] = ht.Word(refs[i], w)
	}
}

// GatherWordI64 gathers payload word w as int64.
func GatherWordI64(ht *hashtable.Table, refs []hashtable.Ref, w int, n int, res []int64) {
	for i := 0; i < n; i++ {
		res[i] = int64(ht.Word(refs[i], w))
	}
}
