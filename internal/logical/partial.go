package logical

import (
	"context"

	"paradigms/internal/catalog"
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
// single-process concatenation.
func MergeGroupRows(agg *Aggregate, parts []*Partial) [][]int64 {
	nk := len(agg.Keys)
	idx := make(map[uint64]int)
	var out [][]int64
	for _, p := range parts {
		for _, r := range p.Groups {
			k := EncodeGroupKey(agg.Keys, r)
			j, ok := idx[k]
			if !ok {
				idx[k] = len(out)
				out = append(out, append([]int64(nil), r...))
				continue
			}
			dst := out[j]
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
