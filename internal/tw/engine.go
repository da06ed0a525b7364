// Package tw is the vectorized query engine ("Tectorwise" in the paper,
// VectorWise style).
//
// Queries execute vector-at-a-time: operators exchange blocks of (by
// default) 1000 tuples, and all data-touching work happens in small
// type-specialized primitives that read input vectors and materialize
// output vectors (§2.1). Every primitive obeys the two vectorization
// constraints the paper identifies: (i) it is specialized to one data
// type, and (ii) it processes many tuples per call. Selection primitives
// produce selection vectors; secondary selections consume them; hash
// joins split into probe-hash, find-candidates, compare-keys, and gather
// primitives exactly as in Figure 2b of the paper.
//
// The engine shares all data structures with Typer: the tagged chaining
// hash table, the spill-partitioned two-phase aggregation, and the
// morsel-driven scheduler. Each worker owns a private operator tree with
// private vector buffers; operators coordinate through shared state and
// barriers (§6.1).
package tw

import (
	"runtime"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
)

const (
	// aggPartitions mirrors Typer's aggregation configuration so the
	// two-phase algorithm is identical (both bound their pre-aggregation
	// tables at hashtable.PreAggCapacity).
	aggPartitions = 64

	// AggPartitions exports the spill-partition count for layers that
	// assemble this engine's primitives into plans (internal/plan) and
	// must configure the shared two-phase aggregation identically.
	AggPartitions = aggPartitions
)

// Hash is the hash function Tectorwise uses for all keys: Murmur2 (§4.1 —
// more instructions than CRC but higher throughput, which wins when hash
// computation is a separate primitive).
var Hash = hashtable.Murmur2

// workers normalizes a worker-count argument.
func workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Scan claims morsels from a shared dispatcher and serves them as vectors
// of at most vecSize tuples. Column data is accessed as windows
// col[Base : Base+n], so scans copy nothing.
type Scan struct {
	disp    *exec.Dispatcher
	vecSize int
	m       exec.Morsel
	pos     int
	inM     bool

	// Base is the absolute row index of the current vector's first tuple.
	Base int
	// Scanned is the number of tuples served so far, over all vectors.
	Scanned int
}

// NewScan creates a scan over a shared dispatcher.
func NewScan(disp *exec.Dispatcher, vecSize int) *Scan {
	return &Scan{disp: disp, vecSize: vecSize}
}

// SetVec changes the tuples-per-vector size for subsequent vectors —
// the micro-adaptivity hook (§8.4): a pipeline can trial several vector
// sizes on its first morsels and commit to the fastest. Callers must
// keep v within the capacity of the buffers downstream operators were
// built with. Values <= 0 are ignored.
func (s *Scan) SetVec(v int) {
	if v > 0 {
		s.vecSize = v
	}
}

// Next returns the size of the next vector (0 when the scan is
// exhausted). Vectors never cross morsel boundaries.
func (s *Scan) Next() int {
	for {
		if s.inM && s.pos < s.m.End {
			n := s.m.End - s.pos
			if n > s.vecSize {
				n = s.vecSize
			}
			s.Base = s.pos
			s.pos += n
			s.Scanned += n
			return n
		}
		m, ok := s.disp.Next()
		if !ok {
			return 0
		}
		s.m = m
		s.pos = m.Begin
		s.inM = true
	}
}
