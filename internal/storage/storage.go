// Package storage implements the columnar in-memory table format shared by
// both query engines.
//
// A Relation is a set of equal-length columns. Columns are plain Go slices
// of primitive element types; variable-length strings use an offsets+bytes
// layout (one contiguous byte heap per column). There is deliberately no
// compression and no sub-byte packing: the paper's test system stores
// uncompressed columns so that the execution paradigm is the only variable
// under study (§3).
package storage

import (
	"fmt"
	"sort"
	"sync"

	"paradigms/internal/types"
)

// ColType identifies the physical element type of a column.
type ColType uint8

// Physical column types.
const (
	Int32 ColType = iota
	Int64
	Numeric // types.Numeric, scale-2 fixed point stored as int64
	Date    // types.Date stored as int32 days
	Byte    // single-character attributes, e.g. l_returnflag
	String  // variable-length, offsets into a byte heap
)

func (t ColType) String() string {
	switch t {
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Numeric:
		return "numeric"
	case Date:
		return "date"
	case Byte:
		return "byte"
	case String:
		return "string"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// Width returns the in-memory width in bytes of one element of the type.
// String columns report the width of their offset entry.
func (t ColType) Width() int {
	switch t {
	case Int32, Date, String:
		return 4
	case Int64, Numeric:
		return 8
	case Byte:
		return 1
	}
	return 0
}

// StringHeap is the storage for one variable-length string column:
// value i occupies Bytes[Offsets[i]:Offsets[i+1]]. Offsets are absolute
// positions in Bytes; only a heap built by Append starts at 0.
type StringHeap struct {
	Offsets []uint32 // len == number of rows + 1
	Bytes   []byte
}

// Get returns string value i as a byte slice aliasing the heap.
func (h *StringHeap) Get(i int) []byte { return h.Bytes[h.Offsets[i]:h.Offsets[i+1]] }

// Len returns the number of string values.
func (h *StringHeap) Len() int { return len(h.Offsets) - 1 }

// ByteLen returns the number of heap bytes the values occupy. A view
// (Relation.Slice) shares the heap bytes before its first value too,
// so this is not len(Bytes).
func (h *StringHeap) ByteLen() int { return int(h.Offsets[len(h.Offsets)-1] - h.Offsets[0]) }

// Append adds a value to the heap. The heap must have been initialized
// with one zero offset (NewStringHeap does this).
func (h *StringHeap) Append(s []byte) {
	h.Bytes = append(h.Bytes, s...)
	h.Offsets = append(h.Offsets, uint32(len(h.Bytes)))
}

// AppendString adds a string value to the heap.
func (h *StringHeap) AppendString(s string) {
	h.Bytes = append(h.Bytes, s...)
	h.Offsets = append(h.Offsets, uint32(len(h.Bytes)))
}

// NewStringHeap returns an empty heap ready for Append, with capacity
// hints for n values of avg average length.
func NewStringHeap(n, avg int) *StringHeap {
	h := &StringHeap{Offsets: make([]uint32, 1, n+1)}
	if n > 0 {
		h.Bytes = make([]byte, 0, n*avg)
	}
	return h
}

// Column is one named, typed column of a relation. Exactly one of the
// typed slices is non-nil, matching Type.
type Column struct {
	Name string
	Type ColType

	I32 []int32
	I64 []int64
	Num []types.Numeric
	Dat []types.Date
	B   []byte
	Str *StringHeap
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Int32:
		return len(c.I32)
	case Int64:
		return len(c.I64)
	case Numeric:
		return len(c.Num)
	case Date:
		return len(c.Dat)
	case Byte:
		return len(c.B)
	case String:
		return c.Str.Len()
	}
	return 0
}

// Relation is a named collection of equal-length columns.
type Relation struct {
	Name    string
	columns []*Column
	byName  map[string]*Column
	rows    int
}

// NewRelation creates an empty relation with the given name.
func NewRelation(name string) *Relation {
	return &Relation{Name: name, byName: make(map[string]*Column)}
}

// Rows returns the number of rows in the relation.
func (r *Relation) Rows() int { return r.rows }

// Columns returns the columns in definition order.
func (r *Relation) Columns() []*Column { return r.columns }

func (r *Relation) add(c *Column) *Column {
	n := c.Len()
	if len(r.columns) == 0 {
		r.rows = n
	} else if n != r.rows {
		panic(fmt.Sprintf("storage: column %s.%s has %d rows, relation has %d",
			r.Name, c.Name, n, r.rows))
	}
	if _, dup := r.byName[c.Name]; dup {
		panic(fmt.Sprintf("storage: duplicate column %s.%s", r.Name, c.Name))
	}
	r.columns = append(r.columns, c)
	r.byName[c.Name] = c
	return c
}

// AddInt32 attaches an int32 column.
func (r *Relation) AddInt32(name string, v []int32) *Column {
	return r.add(&Column{Name: name, Type: Int32, I32: v})
}

// AddInt64 attaches an int64 column.
func (r *Relation) AddInt64(name string, v []int64) *Column {
	return r.add(&Column{Name: name, Type: Int64, I64: v})
}

// AddNumeric attaches a fixed-point decimal column.
func (r *Relation) AddNumeric(name string, v []types.Numeric) *Column {
	return r.add(&Column{Name: name, Type: Numeric, Num: v})
}

// AddDate attaches a date column.
func (r *Relation) AddDate(name string, v []types.Date) *Column {
	return r.add(&Column{Name: name, Type: Date, Dat: v})
}

// AddByte attaches a single-character column.
func (r *Relation) AddByte(name string, v []byte) *Column {
	return r.add(&Column{Name: name, Type: Byte, B: v})
}

// AddString attaches a variable-length string column.
func (r *Relation) AddString(name string, h *StringHeap) *Column {
	return r.add(&Column{Name: name, Type: String, Str: h})
}

// Column returns the named column or panics: queries reference columns by
// name at plan-construction time, so a miss is a programming error.
func (r *Relation) Column(name string) *Column {
	c, ok := r.byName[name]
	if !ok {
		names := make([]string, 0, len(r.byName))
		for n := range r.byName {
			names = append(names, n)
		}
		sort.Strings(names)
		panic(fmt.Sprintf("storage: relation %s has no column %q (has %v)", r.Name, name, names))
	}
	return c
}

// Has reports whether the relation has a column with the given name.
func (r *Relation) Has(name string) bool { _, ok := r.byName[name]; return ok }

// Int32 returns the data of an int32 column.
func (r *Relation) Int32(name string) []int32 { return r.typed(name, Int32).I32 }

// Int64 returns the data of an int64 column.
func (r *Relation) Int64(name string) []int64 { return r.typed(name, Int64).I64 }

// Numeric returns the data of a numeric column.
func (r *Relation) Numeric(name string) []types.Numeric { return r.typed(name, Numeric).Num }

// Date returns the data of a date column.
func (r *Relation) Date(name string) []types.Date { return r.typed(name, Date).Dat }

// Byte returns the data of a byte column.
func (r *Relation) Byte(name string) []byte { return r.typed(name, Byte).B }

// String returns the heap of a string column.
func (r *Relation) String(name string) *StringHeap { return r.typed(name, String).Str }

func (r *Relation) typed(name string, t ColType) *Column {
	c := r.Column(name)
	if c.Type != t {
		panic(fmt.Sprintf("storage: column %s.%s is %s, requested as %s",
			r.Name, name, c.Type, t))
	}
	return c
}

// Slice returns rows [lo, hi) as a view: a new relation with the same
// name, column order and types whose columns alias the source's backing
// arrays — no value is copied. Every slice's capacity is capped at its
// length, so appending to a view reallocates instead of writing into
// the rows that follow it. A string column's view slices the offsets
// and shares the byte heap up to its last value, so its offsets stay
// absolute (the first need not be 0); size it with StringHeap.ByteLen,
// not len(Bytes). Views are read-only, like every relation the engines
// scan.
func (r *Relation) Slice(lo, hi int) *Relation {
	if lo < 0 || hi < lo || hi > r.rows {
		panic(fmt.Sprintf("storage: slice [%d:%d] of relation %s with %d rows", lo, hi, r.Name, r.rows))
	}
	out := NewRelation(r.Name)
	for _, c := range r.columns {
		v := &Column{Name: c.Name, Type: c.Type}
		switch c.Type {
		case Int32:
			v.I32 = c.I32[lo:hi:hi]
		case Int64:
			v.I64 = c.I64[lo:hi:hi]
		case Numeric:
			v.Num = c.Num[lo:hi:hi]
		case Date:
			v.Dat = c.Dat[lo:hi:hi]
		case Byte:
			v.B = c.B[lo:hi:hi]
		case String:
			end := c.Str.Offsets[hi]
			v.Str = &StringHeap{Offsets: c.Str.Offsets[lo : hi+1 : hi+1], Bytes: c.Str.Bytes[:end:end]}
		}
		out.add(v)
	}
	return out
}

// Gather materializes the subset of rows at the given indices as a new
// relation with the same name, column order, and column types — the
// storage primitive behind partitioning a table whose rows are not
// stored in partition-key order. Values are copied (strings into a
// fresh heap), so the gathered relation shares no backing arrays with
// the source.
func (r *Relation) Gather(idx []int) *Relation {
	out := NewRelation(r.Name)
	for _, c := range r.columns {
		switch c.Type {
		case Int32:
			v := make([]int32, len(idx))
			for j, i := range idx {
				v[j] = c.I32[i]
			}
			out.AddInt32(c.Name, v)
		case Int64:
			v := make([]int64, len(idx))
			for j, i := range idx {
				v[j] = c.I64[i]
			}
			out.AddInt64(c.Name, v)
		case Numeric:
			v := make([]types.Numeric, len(idx))
			for j, i := range idx {
				v[j] = c.Num[i]
			}
			out.AddNumeric(c.Name, v)
		case Date:
			v := make([]types.Date, len(idx))
			for j, i := range idx {
				v[j] = c.Dat[i]
			}
			out.AddDate(c.Name, v)
		case Byte:
			v := make([]byte, len(idx))
			for j, i := range idx {
				v[j] = c.B[i]
			}
			out.AddByte(c.Name, v)
		case String:
			avg := 0
			if n := c.Str.Len(); n > 0 {
				avg = c.Str.ByteLen()/n + 1
			}
			h := NewStringHeap(len(idx), avg)
			for _, i := range idx {
				h.Append(c.Str.Get(i))
			}
			out.AddString(c.Name, h)
		}
	}
	return out
}

// ByteSize returns the approximate in-memory footprint of the relation's
// column data in bytes (used by the out-of-memory experiment and the
// bandwidth accounting in benches).
func (r *Relation) ByteSize() int64 {
	var total int64
	for _, c := range r.columns {
		switch c.Type {
		case String:
			total += int64(c.Str.ByteLen()) + 4*int64(len(c.Str.Offsets))
		default:
			total += int64(c.Len()) * int64(c.Type.Width())
		}
	}
	return total
}

// Database is a named set of relations (one TPC-H or SSB instance).
type Database struct {
	Name      string
	relations map[string]*Relation
	// ScaleFactor records the generator scale the instance was built at.
	ScaleFactor float64

	// derived holds state computed from the database (its catalog), so
	// that state is collected with the database instead of pinning it
	// from a process-global cache.
	derivedOnce sync.Once
	derived     any
}

// NewDatabase creates an empty database.
func NewDatabase(name string, sf float64) *Database {
	return &Database{Name: name, relations: make(map[string]*Relation), ScaleFactor: sf}
}

// Derived returns the database's derived state, running build on first
// use. The slot is opaque to storage: internal/catalog is its one
// client (catalog.For).
func (d *Database) Derived(build func() any) any {
	d.derivedOnce.Do(func() { d.derived = build() })
	return d.derived
}

// Add registers a relation.
func (d *Database) Add(r *Relation) {
	if _, dup := d.relations[r.Name]; dup {
		panic("storage: duplicate relation " + r.Name)
	}
	d.relations[r.Name] = r
}

// Rel returns a relation by name, panicking if absent.
func (d *Database) Rel(name string) *Relation {
	r, ok := d.relations[name]
	if !ok {
		panic(fmt.Sprintf("storage: database %s has no relation %q", d.Name, name))
	}
	return r
}

// Relations returns the relation names in sorted order.
func (d *Database) Relations() []string {
	names := make([]string, 0, len(d.relations))
	for n := range d.relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalTuples sums the row counts of the given relations; the paper
// normalizes all CPU counters by the total number of tuples scanned by a
// query (§3.4).
func (d *Database) TotalTuples(relations ...string) int64 {
	var total int64
	for _, n := range relations {
		total += int64(d.Rel(n).Rows())
	}
	return total
}
