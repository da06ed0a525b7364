package paradigms

import (
	"context"

	"paradigms/internal/logical"
	"paradigms/internal/prepcache"
)

// Auto is the prepared statements' name for the hybrid engine: each
// execution runs every pipeline on the backend the hybrid's static cost
// heuristic assigns it — the serving-time use of the paper's finding
// that neither paradigm dominates. Only prepared statements accept it,
// and it is the wire's default for them; one-shot RunContext calls name
// the hybrid directly.
const Auto Engine = prepcache.Auto

// Stmt is a prepared statement outside the query service: the SQL text
// — with optional `?` placeholders — parsed, bound, and optimized once
// against one database, executable many times with per-call argument
// bindings on either engine (or Auto). Safe for concurrent use. Inside
// the service, use Service.Prepare/DoPrepared instead, which add the
// shared plan cache and admission control.
type Stmt struct {
	s *prepcache.Statement
}

// Prepare parses, binds, and optimizes a SQL text against db's catalog.
func Prepare(db *DB, text string) (*Stmt, error) {
	pl, err := logical.Prepare(db, text)
	if err != nil {
		return nil, err
	}
	return &Stmt{s: prepcache.NewStatement(prepcache.Normalize(text), pl)}, nil
}

// SQL is the normalized statement text.
func (s *Stmt) SQL() string { return s.s.Text }

// NumParams is the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.s.NumParams() }

// Exec runs the statement with one argument binding (one text per
// placeholder; dates as YYYY-MM-DD, numerics at the slot's scale). It
// returns the result and the engine that actually executed — the
// requested engine, with the per-pipeline assignment appended for
// hybrid ("hybrid[t,v]"), and Auto reported as the hybrid it ran.
func (s *Stmt) Exec(ctx context.Context, engine Engine, args []string, opt Options) (*logical.Result, Engine, error) {
	vals, err := s.s.BindTexts(args)
	if err != nil {
		return nil, engine, err
	}
	res, used, err := s.s.Execute(ctx, string(engine), vals, opt.Workers, opt.VectorSize)
	return res, Engine(used), err
}
