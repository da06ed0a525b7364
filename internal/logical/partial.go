package logical

import (
	"context"
	"math/bits"

	"paradigms/internal/catalog"
	"paradigms/internal/hashtable"
)

// Partial is one shard's share of a query: the per-worker state each
// backend produces *before* the finalization tail (HAVING, ORDER BY,
// LIMIT, item mapping). Exactly one field is populated, matching the
// plan's shape. Keeping HAVING/sort/limit out of the shard output is
// what makes cross-shard merging safe: a HAVING predicate over a
// partial aggregate would filter on incomplete values, so shards ship
// raw partials and only the coordinator finalizes.
type Partial struct {
	// Groups holds merged group rows in slot layout [keys..., aggs...]
	// (keyed aggregation). Within one shard each group key appears at
	// most once; across shards the coordinator re-merges by key.
	Groups [][]int64
	// Globals holds the per-worker accumulators of a global aggregate.
	Globals []GlobalPartial
	// Rows holds projection rows in item layout (no aggregation).
	Rows [][]int64
}

// ExecutePartial is Execute minus FinalizeRows: it stops before
// finalization and returns the shard-local partial state for
// MergePartials — the scatter side of the exchange.
func (pl *Plan) ExecutePartial(ctx context.Context, workers, vecSize int) (*Partial, error) {
	out, err := pl.driveVec(ctx, workers, vecSize, Mode{Partial: true})
	return out.Partial, err
}

// MergePartials is the gather side of the exchange: it combines the
// shards' partial states and runs the shared finalization tail, so the
// distributed path reuses exactly the HAVING/ORDER BY/LIMIT semantics
// of single-process execution. With one partial from one shard the
// result is bit-identical to Execute (merging preserves first-seen
// group order, and a single shard has no duplicate keys).
func (pl *Plan) MergePartials(parts []*Partial) (*Result, error) {
	agg := pl.Agg
	switch {
	case agg != nil && len(agg.Keys) > 0:
		return pl.FinalizeRows(MergeGroupRows(agg, parts))
	case agg != nil:
		var gps []GlobalPartial
		for _, p := range parts {
			gps = append(gps, p.Globals...)
		}
		return pl.FinalizeRows([][]int64{MergeGlobal(agg, gps)})
	default:
		var rows [][]int64
		for _, p := range parts {
			rows = append(rows, p.Rows...)
		}
		return pl.FinalizeRows(rows)
	}
}

// EncodeGroupKey packs a slot-layout row's key columns back into the
// group-key word — the encode side of DecodeGroupKey (single keys as
// zero-extended words, 32-bit pairs packed lo|hi<<32), used to re-key
// group rows when merging shard partials.
func EncodeGroupKey(keys []*catalog.Column, row []int64) uint64 {
	if len(keys) == 1 {
		return uint64(row[0])
	}
	return uint64(uint32(row[0])) | uint64(uint32(row[1]))<<32
}

// MergeGroupRows combines the shards' merged group rows (slot layout
// [keys..., aggs...]) by group key with the same per-op semantics as
// the spill merge: sums and counts add, min/max compare, first keeps
// the first-seen value (OpFirst slots are functionally determined by
// the key, so every shard agrees on them). Output preserves first-seen
// insertion order, which keeps the N=1 path bit-identical to the
// single-process concatenation. The groups live in one open-addressing
// table over EncodeGroupKey words and their rows in one arena, so the
// merge allocates a fixed handful of slices whatever the group count.
func MergeGroupRows(agg *Aggregate, parts []*Partial) [][]int64 {
	total, width := 0, 0
	for _, p := range parts {
		total += len(p.Groups)
		if len(p.Groups) > 0 {
			width = len(p.Groups[0])
		}
	}
	if total == 0 {
		return nil
	}
	nk := len(agg.Keys)
	arena := make([]int64, total*width)
	out := make([][]int64, 0, total)
	// Linear probing at load ≤ 1/2; slots hold an out index + 1, so 0
	// marks an empty slot whatever the key word.
	size := 1 << bits.Len(uint(2*total-1))
	mask := uint64(size - 1)
	slots := make([]int32, size)
	words := make([]uint64, size)
	for _, p := range parts {
		for _, r := range p.Groups {
			k := EncodeGroupKey(agg.Keys, r)
			h := hashtable.Mix64(k) & mask
			for slots[h] != 0 && words[h] != k {
				h = (h + 1) & mask
			}
			if slots[h] == 0 {
				n := len(out)
				dst := arena[n*width : (n+1)*width : (n+1)*width]
				copy(dst, r)
				out = append(out, dst)
				slots[h], words[h] = int32(n+1), k
				continue
			}
			dst := out[slots[h]-1]
			for a, s := range agg.Aggs {
				switch s.Op {
				case OpSum, OpCount:
					dst[nk+a] += r[nk+a]
				case OpMin:
					if r[nk+a] < dst[nk+a] {
						dst[nk+a] = r[nk+a]
					}
				case OpMax:
					if r[nk+a] > dst[nk+a] {
						dst[nk+a] = r[nk+a]
					}
				}
			}
		}
	}
	return out
}
