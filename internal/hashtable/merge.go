package hashtable

// AggOp describes how one aggregate word of a spilled partial row is
// combined during the partition-merge phase of the two-phase aggregation.
type AggOp uint8

// Aggregate merge operators.
const (
	OpSum   AggOp = iota // two's-complement addition (SUM, COUNT)
	OpFirst              // keep the first value seen (carried attributes)
	OpMin                // signed int64 minimum
	OpMax                // signed int64 maximum
)

// MergeSpill merges all partial rows of one spill partition. Rows have the
// layout [hash, key, agg0, agg1, ...] with len(ops) aggregate words. After
// merging, emit is called once per distinct key with the final row
// (same layout, hash included).
//
// Both engines run this identical algorithm for aggregation phase two; the
// paradigm under study differentiates phase one (per-tuple fused loops vs.
// per-vector primitives), which consumes the base table.
func MergeSpill(spill *Spill, partition int, ops []AggOp, emit func(row []uint64)) {
	rw := spill.RowWords()
	if rw != 2+len(ops) {
		panic("hashtable: MergeSpill ops inconsistent with spill row width")
	}
	n := spill.PartitionCount(partition)
	if n == 0 {
		return
	}
	merged := New(1+len(ops), 1)
	merged.Prepare(n)
	sh := merged.Shard(0)
	spill.PartitionRows(partition, func(row []uint64) {
		h, key := row[0], row[1]
		for ref := merged.Lookup(h); ref != 0; ref = merged.Next(ref) {
			if merged.Hash(ref) == h && merged.Word(ref, 0) == key {
				for a, op := range ops {
					switch op {
					case OpSum:
						merged.SetWord(ref, 1+a, merged.Word(ref, 1+a)+row[2+a])
					case OpMin:
						if int64(row[2+a]) < int64(merged.Word(ref, 1+a)) {
							merged.SetWord(ref, 1+a, row[2+a])
						}
					case OpMax:
						if int64(row[2+a]) > int64(merged.Word(ref, 1+a)) {
							merged.SetWord(ref, 1+a, row[2+a])
						}
					}
				}
				return
			}
		}
		ref, _ := sh.Alloc(merged, h)
		merged.SetWord(ref, 0, key)
		for a := range ops {
			merged.SetWord(ref, 1+a, row[2+a])
		}
		merged.Insert(ref, h)
	})
	out := make([]uint64, rw)
	merged.ForEach(func(ref Ref) {
		out[0] = merged.Hash(ref)
		out[1] = merged.Word(ref, 0)
		for a := range ops {
			out[2+a] = merged.Word(ref, 1+a)
		}
		emit(out)
	})
}
