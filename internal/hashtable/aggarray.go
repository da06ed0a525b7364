package hashtable

import "math/bits"

// AggArray is one worker's phase-one aggregation over a dense integer
// group-key domain [min, min+span): the group of key k lives in slot
// k − min, so a row finds its group with a subtraction instead of a
// hash, a directory load and a chain walk. Slot d holds the group's
// aggregate words at Words()[d·width : (d+1)·width]; the first row that
// reaches a slot initialises it (Slot reports it). Flush hands the
// occupied slots to phase two as ordinary spill rows [hash, key,
// aggs...], so MergeSpill is unchanged. Single-threaded use only.
type AggArray struct {
	min   uint64
	span  uint64
	width int
	words []uint64
	used  []uint64 // bit d set once slot d holds a group
}

// NewAggArray allocates the slots of span keys starting at min, width
// aggregate words each.
func NewAggArray(min uint64, span, width int) *AggArray {
	return &AggArray{
		min:   min,
		span:  uint64(span),
		width: width,
		words: make([]uint64, span*width),
		used:  make([]uint64, (span+63)/64),
	}
}

// Words returns the slots' aggregate words.
func (a *AggArray) Words() []uint64 { return a.words }

// Slot returns the offset in Words of key k's aggregate words, and
// whether this is the slot's first row (the caller then initialises
// them). A key outside the domain is a planning error and panics.
func (a *AggArray) Slot(k uint64) (off int, first bool) {
	d := k - a.min
	if d >= a.span {
		panic("hashtable: group key outside the aggregation array's domain")
	}
	w, bit := &a.used[d>>6], uint64(1)<<(d&63)
	first = *w&bit == 0
	*w |= bit
	return int(d) * a.width, first
}

// Flush appends every occupied slot to worker wid's spill partitions as
// a row [Mix64(key), key, aggs...], ending phase one for this worker.
func (a *AggArray) Flush(spill *Spill, wid int) {
	for i, word := range a.used {
		for ; word != 0; word &= word - 1 {
			d := uint64(i*64 + bits.TrailingZeros64(word))
			k := a.min + d
			h := Mix64(k)
			row := spill.AppendRow(wid, PartitionOf(h, spill.Parts()))
			row[0], row[1] = h, k
			off := int(d) * a.width
			copy(row[2:], a.words[off:off+a.width])
		}
	}
}
