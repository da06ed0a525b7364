package logical

import (
	"fmt"

	"paradigms/internal/catalog"
	"paradigms/internal/sql"
	"paradigms/internal/storage"
)

// CatalogFor is catalog.For under its old name, which the benchmark
// module still calls.
func CatalogFor(db *storage.Database) *catalog.Catalog { return catalog.For(db) }

// RouteByTables picks the first database whose catalog has every FROM
// table of the statement — the shared routing rule of the query
// service and cmd/sqlsh. Nil databases are skipped.
func RouteByTables(stmt string, dbs ...*storage.Database) (*storage.Database, error) {
	tables, err := sql.Tables(stmt)
	if err != nil {
		return nil, err
	}
	return route(tables, dbs)
}

func route(tables []string, dbs []*storage.Database) (*storage.Database, error) {
	for _, db := range dbs {
		if db == nil {
			continue
		}
		cat := catalog.For(db)
		all := true
		for _, t := range tables {
			if cat.Table(t) == nil {
				all = false
				break
			}
		}
		if all {
			return db, nil
		}
	}
	return nil, fmt.Errorf("logical: no loaded database has tables %v", tables)
}

// Prepare parses, binds, and plans a SQL text against a database: the
// front half of every ad-hoc execution (internal/engine runs the plan).
func Prepare(db *storage.Database, text string) (*Plan, error) {
	return PrepareHints(db, text, nil)
}

// PrepareHints is Prepare with a cardinality-feedback override for the
// join-order pick (see PlanQueryHints) — the re-planning entry point of
// the feedback loop.
func PrepareHints(db *storage.Database, text string, hints CardHints) (*Plan, error) {
	sel, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return planParsed(sel, db, hints)
}

// PrepareRouted is RouteByTables followed by PrepareHints off a single
// parse — the query service's front half, where the text arrives
// without a database. The plan's Catalog says where it routed.
func PrepareRouted(text string, hints CardHints, dbs ...*storage.Database) (*Plan, error) {
	sel, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	db, err := route(sel.Tables(), dbs)
	if err != nil {
		return nil, err
	}
	return planParsed(sel, db, hints)
}

func planParsed(sel *sql.Select, db *storage.Database, hints CardHints) (*Plan, error) {
	cat := catalog.For(db)
	if err := sql.Bind(sel, cat); err != nil {
		return nil, err
	}
	return PlanQueryHints(sel, cat, hints)
}
