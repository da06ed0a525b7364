// Package typer is the data-centric compiled query engine ("Typer" in the
// paper, HyPer-style).
//
// Each query is executed as a small number of fused pipelines: one tight
// tuple-at-a-time loop per pipeline that keeps intermediate values in
// local variables ("registers") and inlines hash-table access, exactly the
// code a data-centric code generator would emit. Per DESIGN.md S1, Go has
// no practical JIT, so the repository ships the generated code directly —
// the paper itself notes (§1 fn.1) that the codegen target affects only
// compile time, which all measurements exclude.
//
// Parallelism is morsel-driven (§6.1): the table-scan loop of each
// pipeline claims morsels from a shared dispatcher; shared hash tables are
// built with the materialize → barrier → size directory → parallel insert
// protocol; aggregations run the shared two-phase (pre-aggregate + spill
// partitions, then per-partition merge) algorithm. These data structures
// (internal/hashtable) and the scheduler (internal/exec) are the same ones
// Tectorwise uses; only the execution paradigm differs.
package typer

import (
	"runtime"

	"paradigms/internal/exec"
	"paradigms/internal/hashtable"
)

// aggPartitions is the number of spill partitions of the two-phase
// aggregation (power of two). Each worker's pre-aggregation table is
// bounded at hashtable.PreAggCapacity.
const aggPartitions = 64

// Hash is the hash function Typer uses for all keys. The paper uses a
// CRC32-instruction hash here (§4.1: lower latency and fewer instructions
// than Murmur2, which matters inside fused loops); portable Go cannot
// issue that instruction, so Mix64 — a two-multiply finalizer with the
// same low-latency character — plays its role. See hashtable.Mix64.
var Hash = hashtable.Mix64

// workers normalizes a worker-count argument.
func workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// buildBarrier completes a shared hash-table build: all workers have
// materialized their rows; the last one sizes the directory; then every
// worker inserts its own shard; a second barrier releases the probers.
func buildBarrier(ht *hashtable.Table, bar *exec.Barrier, w int) {
	bar.Wait(func() { ht.Prepare(ht.Rows()) })
	ht.InsertShard(w)
	bar.Wait(nil)
}

// packDate packs a 32-bit value pair into one word.
func pack32(lo, hi uint32) uint64 { return uint64(lo) | uint64(hi)<<32 }

func lo32(w uint64) uint32 { return uint32(w) }
func hi32(w uint64) uint32 { return uint32(w >> 32) }
