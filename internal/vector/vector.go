// Package vector provides the vector-at-a-time building blocks of the
// Tectorwise engine: selection vectors and typed buffer arenas.
//
// A selection vector is an array of positions into the current vector of
// tuples (§2.1). Primitives either scan a dense range [0, n) or, when a
// selection vector is present, the sparse positions sel[0:n]. An
// operator tree draws its buffers from one arena while it is built, so
// execution itself performs no allocation; the arena comes from a pool
// (Get, Put) and hands out the vectors of an earlier query again, so a
// query that runs after another of its shape allocates no vectors
// either.
package vector

import (
	"sync"
	"unsafe"

	"paradigms/internal/hashtable"
	"paradigms/internal/types"
)

// DefaultSize is the default number of tuples per vector. The paper uses
// 1000 (VectorWise's default) and shows in Fig. 5 that sizes between ~1K
// and 64K perform within a few percent.
const DefaultSize = 1000

// Sel is a selection vector: positions of qualifying tuples, ascending.
type Sel = []int32

// Iota fills sel[0:n] with 0..n-1 and returns it, growing if needed.
// A dense range is represented by a nil selection vector in primitives;
// Iota is used where an explicit vector is required (e.g. tests).
func Iota(sel Sel, n int) Sel {
	if cap(sel) < n {
		sel = make(Sel, n)
	}
	sel = sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// Buffers is the per-operator scratch memory of a Tectorwise operator
// instance. Each worker's operator tree owns private Buffers; only
// operator *shared state* (hash tables, result sinks) is shared (§6.1).
// Each method hands out the arena's next vector of its kind: one it
// held from before its last reset, resliced to the vector size and
// cleared, or a new one.
type Buffers struct {
	size  int
	sels  stack[int32]
	i32s  stack[int32]
	i64s  stack[int64]
	nums  stack[types.Numeric]
	refs  stack[uint64]
	htRef stack[hashtable.Ref]
	b8s   stack[byte]
}

// stack is the vectors of one kind an arena holds; the first n are
// handed out.
type stack[T any] struct {
	held [][]T
	n    int
}

func (s *stack[T]) take(size int) []T {
	if s.n == len(s.held) {
		s.held = append(s.held, nil)
	}
	v := s.held[s.n]
	if cap(v) < size {
		v = make([]T, size)
		s.held[s.n] = v
	} else {
		v = v[:size]
		clear(v)
	}
	s.n++
	return v
}

// bytes is what the handed-out vectors occupy.
func (s *stack[T]) bytes() int64 {
	var zero T
	var total int64
	for _, v := range s.held[:s.n] {
		total += int64(cap(v)) * int64(unsafe.Sizeof(zero))
	}
	return total
}

// NewBuffers creates a buffer arena for vectors of the given size.
func NewBuffers(size int) *Buffers {
	if size <= 0 {
		size = DefaultSize
	}
	return &Buffers{size: size}
}

// pool holds the arenas of finished workers for the next query.
var pool sync.Pool

// Get returns an arena for vectors of the given size, reusing one a
// finished worker Put back when there is one. Its vectors are handed out
// again from the first.
func Get(size int) *Buffers {
	b, _ := pool.Get().(*Buffers)
	if b == nil {
		return NewBuffers(size)
	}
	b.reset(size)
	return b
}

// reset makes the arena hand out its vectors again from the first, at
// the given vector size.
func (b *Buffers) reset(size int) {
	if size <= 0 {
		size = DefaultSize
	}
	b.size = size
	b.sels.n, b.i32s.n, b.i64s.n, b.nums.n, b.refs.n, b.htRef.n, b.b8s.n = 0, 0, 0, 0, 0, 0, 0
}

// Put returns an arena to the pool once nothing uses its vectors: the
// operator tree that drew them is done and holds no batch.
func Put(b *Buffers) { pool.Put(b) }

// Size returns the configured vector size.
func (b *Buffers) Size() int { return b.size }

// Sel hands out a selection vector buffer of the vector size.
func (b *Buffers) Sel() []int32 { return b.sels.take(b.size) }

// I32 hands out an int32 vector buffer.
func (b *Buffers) I32() []int32 { return b.i32s.take(b.size) }

// I64 hands out an int64 vector buffer.
func (b *Buffers) I64() []int64 { return b.i64s.take(b.size) }

// Num hands out a Numeric vector buffer.
func (b *Buffers) Num() []types.Numeric { return b.nums.take(b.size) }

// Ref hands out a 64-bit vector buffer (keys, hash values).
func (b *Buffers) Ref() []uint64 { return b.refs.take(b.size) }

// Entries hands out a vector of hash-table entry references (probe
// candidates and matches).
func (b *Buffers) Entries() []hashtable.Ref { return b.htRef.take(b.size) }

// Bytes hands out a byte vector buffer.
func (b *Buffers) Bytes() []byte { return b.b8s.take(b.size) }

// Footprint returns the bytes of the vectors handed out since the arena
// was made or last reused; the vector-size experiment (Fig. 5) reports
// it to relate vector size to cache capacity.
func (b *Buffers) Footprint() int64 {
	return b.sels.bytes() + b.i32s.bytes() + b.i64s.bytes() + b.nums.bytes() +
		b.refs.bytes() + b.htRef.bytes() + b.b8s.bytes()
}
