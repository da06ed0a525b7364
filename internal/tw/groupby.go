package tw

import (
	"paradigms/internal/hashtable"
)

// GroupBy is the vectorized side of the shared two-phase aggregation.
//
// Phase one processes each input vector with three primitive passes:
// find-groups (probe the worker-local pre-aggregation table), handle
// misses (sequentially insert new groups, growing the table with them,
// and spill single-tuple partials to hash partitions once it reaches
// hashtable.PreAggCapacity — the paper's
// "shuffle group-less tuples and add one group per partition" step,
// realized as an insert-if-absent pass so duplicate keys inside one
// vector create exactly one group), and update-aggregates (one pass per
// aggregate column over the found group references).
//
// Phase two — per-partition merge — is hashtable.MergeSpill, identical
// code for both engines: the paradigm difference under study lives in how
// phase one consumes the base data.
type GroupBy struct {
	local *hashtable.Table
	sh    *hashtable.Shard
	spill *hashtable.Spill
	wid   int
	ops   []hashtable.AggOp

	// Per-vector state (sized by the owner).
	Refs    []hashtable.Ref // group ref per tuple; 0 = spilled
	missSel []int32
}

// NewGroupBy creates phase-one state for one worker. vecCap is the
// maximum vector length the owner will feed (match buffers of multi-match
// joins can exceed the scan vector size).
func NewGroupBy(spill *hashtable.Spill, wid int, ops []hashtable.AggOp, vecCap int) *GroupBy {
	local := hashtable.New(1+len(ops), 1)
	local.Prepare(0)
	return &GroupBy{
		local:   local,
		sh:      local.Shard(0),
		spill:   spill,
		wid:     wid,
		ops:     ops,
		Refs:    make([]hashtable.Ref, vecCap),
		missSel: make([]int32, vecCap),
	}
}

// FindGroups probes the pre-aggregation table for each of the n keys,
// filling Refs and compacting the missing positions; returns the number
// of misses.
func (g *GroupBy) FindGroups(n int, keys, hashes []uint64) int {
	local := g.local
	k := 0
	for i := 0; i < n; i++ {
		h := hashes[i]
		key := keys[i]
		ref := local.Lookup(h)
		for ; ref != 0; ref = local.Next(ref) {
			if local.Hash(ref) == h && local.Word(ref, 0) == key {
				break
			}
		}
		g.Refs[i] = ref
		g.missSel[k] = int32(i)
		if ref == 0 {
			k++
		}
	}
	return k
}

// HandleMisses inserts one group per distinct missing key (or spills the
// tuple's partial once at capacity). vals[j] is the dense input vector of
// aggregate j, aligned with the keys vector. Spilled tuples keep Refs ==
// 0 so UpdateAggs skips them.
func (g *GroupBy) HandleMisses(nMiss int, keys, hashes []uint64, vals [][]int64) {
	local := g.local
	for m := 0; m < nMiss; m++ {
		i := g.missSel[m]
		h := hashes[i]
		key := keys[i]
		// An earlier miss in this vector may have created the group.
		ref := local.Lookup(h)
		for ; ref != 0; ref = local.Next(ref) {
			if local.Hash(ref) == h && local.Word(ref, 0) == key {
				break
			}
		}
		if ref != 0 {
			g.Refs[i] = ref
			continue
		}
		if local.AggRoom() {
			ref, _ := g.sh.Alloc(local, h)
			local.SetWord(ref, 0, key)
			for j, op := range g.ops {
				if op == hashtable.OpSum {
					local.SetWord(ref, 1+j, 0)
				} else {
					local.SetWord(ref, 1+j, uint64(vals[j][i]))
				}
			}
			local.Insert(ref, h)
			g.Refs[i] = ref
			continue
		}
		row := g.spill.AppendRow(g.wid, hashtable.PartitionOf(h, g.spill.Parts()))
		row[0] = h
		row[1] = key
		for j := range g.ops {
			row[2+j] = uint64(vals[j][i])
		}
	}
}

// UpdateAggs adds the aggregate inputs of all resolved tuples into their
// group's payload: one primitive pass per aggregate column.
func (g *GroupBy) UpdateAggs(n int, vals [][]int64) {
	local := g.local
	for j, op := range g.ops {
		col := vals[j]
		w := 1 + j
		switch op {
		case hashtable.OpSum:
			for i := 0; i < n; i++ {
				ref := g.Refs[i]
				if ref != 0 {
					local.SetWord(ref, w, local.Word(ref, w)+uint64(col[i]))
				}
			}
		case hashtable.OpMin:
			for i := 0; i < n; i++ {
				ref := g.Refs[i]
				if ref != 0 && col[i] < int64(local.Word(ref, w)) {
					local.SetWord(ref, w, uint64(col[i]))
				}
			}
		case hashtable.OpMax:
			for i := 0; i < n; i++ {
				ref := g.Refs[i]
				if ref != 0 && col[i] > int64(local.Word(ref, w)) {
					local.SetWord(ref, w, uint64(col[i]))
				}
			}
		}
	}
}

// Consume runs the three phase-one passes for one vector.
func (g *GroupBy) Consume(n int, keys, hashes []uint64, vals [][]int64) {
	nMiss := g.FindGroups(n, keys, hashes)
	if nMiss > 0 {
		g.HandleMisses(nMiss, keys, hashes, vals)
	}
	g.UpdateAggs(n, vals)
}

// Flush spills every pre-aggregated group, ending phase one for this
// worker.
func (g *GroupBy) Flush() {
	local := g.local
	nw := len(g.ops)
	local.ForEach(func(ref hashtable.Ref) {
		h := local.Hash(ref)
		row := g.spill.AppendRow(g.wid, hashtable.PartitionOf(h, g.spill.Parts()))
		row[0] = h
		row[1] = local.Word(ref, 0)
		for j := 0; j < nw; j++ {
			row[2+j] = local.Word(ref, 1+j)
		}
	})
}

// ArrayGroupBy is phase one over a dense group-key domain
// (hashtable.AggArray), chosen by the planner in place of GroupBy when
// the key's span is no wider than the rows expected to reach it. Per
// vector it runs find-slots — one subtraction per key, where a slot's
// first row initialises it as HandleMisses would a new group — then one
// update-aggregates pass per aggregate column. No hash is computed and
// nothing spills before Flush.
type ArrayGroupBy struct {
	arr   *hashtable.AggArray
	spill *hashtable.Spill
	wid   int
	ops   []hashtable.AggOp
	offs  []int // slot offset per tuple
}

// NewArrayGroupBy creates phase-one state for one worker over the span
// keys starting at min (vecCap as in NewGroupBy).
func NewArrayGroupBy(spill *hashtable.Spill, wid int, ops []hashtable.AggOp, vecCap int, min uint64, span int) *ArrayGroupBy {
	return &ArrayGroupBy{
		arr:   hashtable.NewAggArray(min, span, len(ops)),
		spill: spill,
		wid:   wid,
		ops:   ops,
		offs:  make([]int, vecCap),
	}
}

// Consume runs find-slots and the update passes for one vector.
func (g *ArrayGroupBy) Consume(n int, keys []uint64, vals [][]int64) {
	words := g.arr.Words()
	offs := g.offs[:n]
	for i := range offs {
		off, first := g.arr.Slot(keys[i])
		offs[i] = off
		if first {
			for j, op := range g.ops {
				if op != hashtable.OpSum {
					words[off+j] = uint64(vals[j][i])
				}
			}
		}
	}
	for j, op := range g.ops {
		col := vals[j][:n]
		switch op {
		case hashtable.OpSum:
			for i, off := range offs {
				words[off+j] += uint64(col[i])
			}
		case hashtable.OpMin:
			for i, off := range offs {
				if col[i] < int64(words[off+j]) {
					words[off+j] = uint64(col[i])
				}
			}
		case hashtable.OpMax:
			for i, off := range offs {
				if col[i] > int64(words[off+j]) {
					words[off+j] = uint64(col[i])
				}
			}
		}
	}
}

// Flush spills every occupied slot, ending phase one for this worker.
func (g *ArrayGroupBy) Flush() { g.arr.Flush(g.spill, g.wid) }
