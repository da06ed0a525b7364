// Package prepcache is the prepared-statement subsystem of the query
// service — an extension beyond the paper's single-shot experiments,
// motivated by its central finding that neither paradigm dominates:
// compiled (Typer) execution wins computation-heavy queries while
// vectorized (Tectorwise) execution wins join/probe-heavy ones, so a
// server that re-plans every SQL text and pins it to one engine leaves
// both optimization cost and the engine choice on the table. The
// package supplies the two pieces that exploit this at serving time:
//
//   - Statement: one prepared SQL text — parsed, bound, and optimized
//     once into a parameterized logical plan (internal/logical), then
//     executed with per-call argument bindings on any engine. Engine
//     "auto", the protocol's default for prepared executions, is
//     another name for the hybrid, whose static cost heuristic
//     (hybrid.CostAssign) puts each pipeline on the backend that suits
//     it. Cardinality feedback re-plans the statement when observed
//     selectivities drift from the estimates.
//   - Cache: a bounded LRU over Statements, keyed on the normalized
//     SQL text plus the catalog version, with hit/miss/eviction
//     counters surfaced through the service stats. A cache hit skips
//     parse, bind, and plan entirely.
package prepcache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"paradigms/internal/catalog"
	"paradigms/internal/logical"
)

// DefaultCapacity is the plan-cache capacity when none is configured.
const DefaultCapacity = 128

// Key identifies one cached statement: the schema instance it was
// planned against and its normalized SQL spelling.
type Key struct {
	Catalog uint64
	SQL     string
}

// entry is one cache slot. The plan is built outside the cache lock,
// behind a per-entry Once, so a miss never serializes other lookups
// and concurrent first-preparers of the same text build only once.
type entry struct {
	once sync.Once
	stmt atomic.Pointer[Statement] // set once built; Lookup reads it without the Once
	err  error
	elem *list.Element // position in the LRU list; nil once evicted
}

// Cache is a bounded LRU plan cache. All methods are safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*entry
	lru     *list.List // front = most recently used; values are Key

	hits, misses, evictions uint64
}

// New creates a cache holding at most capacity statements
// (capacity <= 0 selects DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{cap: capacity, entries: make(map[Key]*entry), lru: list.New()}
}

// Lookup returns the statement already built for the normalized text
// under a catalog version, counting a hit — and nothing on absence, so
// a caller that probes several catalogs before GetOrPrepare still
// counts one hit or one miss per logical prepare.
func (c *Cache) Lookup(catalogVersion uint64, normalized string) (*Statement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[Key{Catalog: catalogVersion, SQL: normalized}]
	if e == nil {
		return nil, false
	}
	st := e.stmt.Load()
	if st == nil {
		return nil, false // still building: the caller's GetOrPrepare joins the build
	}
	c.hits++
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	return st, true
}

// GetOrPrepare returns the cached statement for the text under cat's
// schema, building it with build on a miss. The returned bool reports
// a cache hit. A failed build is not cached: the entry is removed so a
// later (possibly corrected) attempt re-prepares, and every waiter of
// the failed build observes the same error.
func (c *Cache) GetOrPrepare(cat *catalog.Catalog, text string, build func() (*logical.Plan, error)) (*Statement, bool, error) {
	key := Key{Catalog: cat.Version, SQL: Normalize(text)}

	c.mu.Lock()
	e, hit := c.entries[key]
	if hit {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
	} else {
		c.misses++
		e = &entry{}
		e.elem = c.lru.PushFront(key)
		c.entries[key] = e
		for c.lru.Len() > c.cap {
			back := c.lru.Back()
			victim := back.Value.(Key)
			c.lru.Remove(back)
			if ve := c.entries[victim]; ve != nil {
				ve.elem = nil
			}
			delete(c.entries, victim)
			c.evictions++
		}
	}
	c.mu.Unlock()

	e.once.Do(func() {
		pl, err := build()
		if err != nil {
			e.err = err
			return
		}
		e.stmt.Store(NewStatement(key.SQL, pl))
	})
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.entries[key]; ok && cur == e {
			if e.elem != nil {
				c.lru.Remove(e.elem)
				e.elem = nil
			}
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, hit, e.err
	}
	return e.stmt.Load(), hit, nil
}

// Stats reports the cache counters and current occupancy.
func (c *Cache) Stats() (hits, misses, evictions uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.entries)
}

// Normalize canonicalizes a SQL text for cache keying: whitespace runs
// collapse to one space, letters outside string literals fold to lower
// case, line comments drop, and a trailing semicolon is stripped —
// while quoted strings (which are case- and space-significant data)
// pass through verbatim. Two spellings that normalize equally plan
// identically, so they may share one cache slot.
func Normalize(text string) string {
	var sb strings.Builder
	sb.Grow(len(text))
	inStr := false
	pendingSpace := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if inStr {
			sb.WriteByte(c)
			if c == '\'' {
				// '' is the lexer's escaped quote, not the end of the
				// literal; consume both so the scanner stays in sync.
				if i+1 < len(text) && text[i+1] == '\'' {
					sb.WriteByte('\'')
					i++
					continue
				}
				inStr = false
			}
			continue
		}
		switch {
		case c == '\'':
			if pendingSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			pendingSpace = false
			inStr = true
			sb.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			pendingSpace = true
		case c == '-' && i+1 < len(text) && text[i+1] == '-':
			for i < len(text) && text[i] != '\n' {
				i++
			}
			pendingSpace = true
		default:
			if pendingSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			pendingSpace = false
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			sb.WriteByte(c)
		}
	}
	out := sb.String()
	out = strings.TrimSuffix(out, ";")
	return strings.TrimSuffix(out, " ")
}
