// Package catalog is the schema layer of the SQL front-end — an
// extension beyond the paper's fixed query set: it describes the tables
// and columns of a materialized storage.Database (TPC-H or SSB) so that
// ad-hoc SQL can be name-resolved and type-checked against exactly the
// column vectors the engines execute over.
//
// A Catalog is derived from a Database (the relations carry names, types
// and cardinalities already); the catalog adds the two pieces of schema
// knowledge the planner needs that the storage layer does not record:
// which column is a relation's unique key (hash joins build on the
// key-unique side, and group-by keys collapse through key columns), and
// the decimal scale of each fixed-point column (SQL literals are coerced
// to the column's scale so `l_discount between 0.05 and 0.07` compares
// raw scaled integers, §3's exact-integer arithmetic). It also carries
// the two statistics the planner derives from the data, each computed
// on first use and kept on the column: its sampled distinct count
// (Column.NDV) and, for integer-valued columns, its exact bounds
// (Column.Bounds).
package catalog

import (
	"hash/maphash"
	"math"
	"sort"
	"sync/atomic"

	"paradigms/internal/storage"
)

// Kind is the logical type of a column or expression value.
type Kind uint8

// Logical value kinds. All non-string kinds evaluate to 64-bit integers
// during execution (dates as day numbers, numerics as scaled integers).
const (
	Int32 Kind = iota
	Int64
	Numeric
	Date
	Byte
	String
)

func (k Kind) String() string {
	switch k {
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
	return "invalid"
}

// Type is a logical value type: a kind plus, for numerics, the decimal
// scale (raw value = decimal value · 10^Scale).
type Type struct {
	Kind  Kind
	Scale int
}

// Numeric kinds (int32/int64/numeric/date) support arithmetic and
// ordered comparison as 64-bit integers.
func (t Type) IsNumeric() bool {
	return t.Kind == Int32 || t.Kind == Int64 || t.Kind == Numeric || t.Kind == Date
}

// Column is one named, typed column of a cataloged table.
type Column struct {
	Name  string
	Type  Type
	Table *Table

	ndv    atomic.Int64             // NDV's estimate once computed, 0 before
	bounds atomic.Pointer[[2]int64] // Bounds' [min, max] once computed
}

// ndvSample bounds how many values NDV reads, so planning never scans a
// whole fact column.
const ndvSample = 4096

// NDV estimates the column's number of distinct values — the planner's
// equality selectivity is 1/NDV. It is computed on first use from a
// strided sample of at most ndvSample values and kept on the column, so
// it lives exactly as long as the database's catalog. A sample covering
// the whole column counts exactly; a sample at least nine-tenths
// distinct reads as key-like (NDV = rows); otherwise the sample's own
// distinct count stands, which errs toward a higher selectivity.
func (c *Column) NDV() int {
	if n := c.ndv.Load(); n > 0 {
		return int(n)
	}
	n := sampleNDV(c.Table.Rel.Column(c.Name), c.Table.Rows())
	c.ndv.Store(int64(n))
	return n
}

// Bounds returns the exact minimum and maximum value of an
// integer-valued column (int32, int64, numeric as its scaled integer,
// date as its day number); ok is false for other kinds and for an empty
// column. Like NDV it is computed on first use — one pass over the
// column — and kept on the column, so it lives exactly as long as the
// database's catalog.
func (c *Column) Bounds() (lo, hi int64, ok bool) {
	b := c.bounds.Load()
	if b == nil {
		b = new([2]int64)
		b[0], b[1] = columnBounds(c.Table.Rel.Column(c.Name))
		c.bounds.Store(b)
	}
	return b[0], b[1], b[0] <= b[1]
}

// columnBounds scans a column for its bounds; min > max when it has
// none.
func columnBounds(col *storage.Column) (lo, hi int64) {
	switch col.Type {
	case storage.Int32:
		return bounds(col.I32)
	case storage.Int64:
		return bounds(col.I64)
	case storage.Numeric:
		return bounds(col.Num)
	case storage.Date:
		return bounds(col.Dat)
	}
	return 1, 0
}

func bounds[T ~int32 | ~int64](vals []T) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, v := range vals {
		lo, hi = min(lo, int64(v)), max(hi, int64(v))
	}
	return lo, hi
}

func sampleNDV(col *storage.Column, rows int) int {
	if rows <= 1 {
		return 1
	}
	n := min(rows, ndvSample)
	seed := maphash.MakeSeed()
	seen := make(map[uint64]struct{}, n)
	for k := 0; k < n; k++ {
		i := int(int64(k) * int64(rows) / int64(n))
		var v uint64
		switch col.Type {
		case storage.Int32:
			v = uint64(col.I32[i])
		case storage.Int64:
			v = uint64(col.I64[i])
		case storage.Numeric:
			v = uint64(col.Num[i])
		case storage.Date:
			v = uint64(col.Dat[i])
		case storage.Byte:
			v = uint64(col.B[i])
		case storage.String:
			v = maphash.Bytes(seed, col.Str.Get(i))
		}
		seen[v] = struct{}{}
	}
	d := len(seen)
	if n < rows && d >= n*9/10 {
		return rows
	}
	return d
}

// Table describes one relation of the database.
type Table struct {
	Name string
	// Rel is the backing relation; the lowering pass reads column
	// vectors straight from it.
	Rel *storage.Relation
	// Key is the name of the table's unique key column ("" if none).
	// Join builds keyed by it produce N:1 probes; group-by keys that
	// include it functionally determine the table's other columns.
	Key string

	cols   []*Column
	byName map[string]*Column
}

// Rows is the table cardinality, one of the planner's two statistics
// (the other is Column.NDV).
func (t *Table) Rows() int { return t.Rel.Rows() }

// Columns lists the columns in definition order.
func (t *Table) Columns() []*Column { return t.cols }

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column { return t.byName[name] }

// Catalog is the schema of one database.
type Catalog struct {
	DB *storage.Database
	// Version uniquely identifies this derived catalog instance
	// process-wide — the plan cache's key component, so statements
	// prepared against one database can never serve another (or a
	// regenerated instance of the same schema).
	Version uint64

	tables map[string]*Table
	order  []string
}

// versions hands out catalog version numbers.
var versions atomic.Uint64

// uniqueKeys annotates the unique key column of every relation both
// generators materialize (shared spellings: TPC-H and SSB dimensions use
// the same key column names). Fact tables have no unique key.
var uniqueKeys = map[string]string{
	"customer": "c_custkey",
	"orders":   "o_orderkey",
	"supplier": "s_suppkey",
	"part":     "p_partkey",
	"nation":   "n_nationkey",
	"region":   "r_regionkey",
	"date":     "d_datekey",
}

// partitionKeys annotates the range-partitioning column of every fact
// table for the sharded executor (internal/exchange). lineitem and
// orders co-partition on the order key, so their join never crosses a
// shard boundary, and both are stored in order-key order, so their
// shards are views of the base columns; lineorder joins only replicated dimensions, so any
// high-cardinality column works and the customer key spreads evenly.
// Relations absent here — the dimensions, and partsupp with its
// composite key — are replicated to every shard.
var partitionKeys = map[string]string{
	"lineitem":  "l_orderkey",
	"orders":    "o_orderkey",
	"lineorder": "lo_custkey",
}

// PartitionKey returns the relation's range-partition column name, or
// "" for relations that are replicated in a sharded deployment.
func PartitionKey(table string) string { return partitionKeys[table] }

// numericScales overrides the default scale-2 annotation of Numeric
// columns. SSB stores lo_discount as a raw percentage point (1..10), so
// its SQL literals are whole numbers.
var numericScales = map[string]int{
	"lo_discount": 0,
}

// For returns the catalog of a database, derived on first use and kept
// in the database's own derived-state slot: every caller shares one
// Catalog — and so one Version — per database for as long as the
// database lives, and a dropped database takes its catalog with it.
func For(db *storage.Database) *Catalog {
	return db.Derived(func() any { return FromDatabase(db) }).(*Catalog)
}

// FromDatabase derives a fresh catalog (with a fresh Version) of a
// generated database; query paths share one through For.
func FromDatabase(db *storage.Database) *Catalog {
	c := &Catalog{DB: db, Version: versions.Add(1), tables: make(map[string]*Table)}
	for _, name := range db.Relations() {
		rel := db.Rel(name)
		t := &Table{Name: name, Rel: rel, Key: uniqueKeys[name], byName: make(map[string]*Column)}
		for _, col := range rel.Columns() {
			typ := typeOf(col)
			cc := &Column{Name: col.Name, Type: typ, Table: t}
			t.cols = append(t.cols, cc)
			t.byName[col.Name] = cc
		}
		c.tables[name] = t
		c.order = append(c.order, name)
	}
	sort.Strings(c.order)
	return c
}

// typeOf maps a physical column type to its logical type.
func typeOf(col *storage.Column) Type {
	switch col.Type {
	case storage.Int32:
		return Type{Kind: Int32}
	case storage.Int64:
		return Type{Kind: Int64}
	case storage.Numeric:
		scale := 2
		if s, ok := numericScales[col.Name]; ok {
			scale = s
		}
		return Type{Kind: Numeric, Scale: scale}
	case storage.Date:
		return Type{Kind: Date}
	case storage.Byte:
		return Type{Kind: Byte}
	case storage.String:
		return Type{Kind: String}
	}
	panic("catalog: unknown column type")
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables lists the table names in sorted order.
func (c *Catalog) Tables() []string { return c.order }

// Resolve finds every table among the given ones that has a column with
// the given name — the binder's unqualified-name lookup. The result is
// in the order of the input tables, so ambiguity messages are stable.
func Resolve(tables []*Table, col string) []*Column {
	var out []*Column
	for _, t := range tables {
		if c := t.Column(col); c != nil {
			out = append(out, c)
		}
	}
	return out
}
