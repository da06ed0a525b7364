package paradigms

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"paradigms/internal/logical"
	"paradigms/internal/proto"
	"paradigms/internal/proto/client"
	"paradigms/internal/sqlcheck"
)

// TestStreamingEquivalence is the streamed-vs-materialized regression
// net: every query of the sqlcheck corpus (plus the canonical benchmark
// texts), streamed over the network client, must yield exactly the rows
// the materialized Do path produces — on both engines. Multiset
// comparison (sqlcheck.SameRows canonicalizes both sides) covers the
// unordered shapes, whose row order is undefined and varies with merge
// interleaving (DESIGN.md §8 "Result semantics"); ORDER BY texts — all
// total-ordered in this corpus — are additionally compared
// positionally, since streaming must not break their ordering
// guarantee (those shapes materialize server-side and stream in
// chunks).
func TestStreamingEquivalence(t *testing.T) {
	for _, ds := range []string{"tpch", "ssb"} {
		t.Run(ds, func(t *testing.T) { streamingEquivalence(t, ds) })
	}
}

func streamingEquivalence(t *testing.T, dataset string) {
	// One database per service: both benchmarks name a "part" table, so
	// table-based routing needs the datasets served separately (as the
	// differential suites do).
	var db *DB
	var tpchDB, ssbDB *DB
	if dataset == "tpch" {
		db = GenerateTPCH(0.02, 0)
		tpchDB = db
	} else {
		db = GenerateSSB(0.02, 0)
		ssbDB = db
	}
	svc := NewService(tpchDB, ssbDB, ServiceOptions{
		MaxConcurrent: 2,
		StreamChunk:   64, // small chunks: many rows frames per stream
	})
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, nil).Handler())
	defer ts.Close()
	cl := client.New(ts.URL, "equiv")

	var corpus []string
	for _, name := range logical.SQLQueries(dataset) {
		text, _ := logical.SQLText(dataset, name)
		corpus = append(corpus, text)
	}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		corpus = append(corpus, sqlcheck.Generate(rnd, db))
	}

	ctx := context.Background()
	for _, text := range corpus {
		for _, engine := range []string{"typer", "tectorwise"} {
			res, err := svc.Do(ctx, engine, text)
			if err != nil {
				t.Fatalf("%s materialized: %v\n%s", engine, err, text)
			}
			want := res.(*logical.Result)

			rows, err := cl.Query(ctx, engine, text)
			if err != nil {
				t.Fatalf("%s stream submit: %v\n%s", engine, err, text)
			}
			got, err := rows.All()
			if err != nil {
				t.Fatalf("%s stream: %v\n%s", engine, err, text)
			}

			if len(rows.Cols()) != len(want.Cols) {
				t.Fatalf("%s: streamed %d cols, materialized %d\n%s",
					engine, len(rows.Cols()), len(want.Cols), text)
			}
			for i, c := range rows.Cols() {
				if c.Name != want.Cols[i].Name || c.Type != want.Cols[i].Type.Kind.String() {
					t.Errorf("%s: col %d is %s %s streamed vs %s %s materialized\n%s",
						engine, i, c.Name, c.Type,
						want.Cols[i].Name, want.Cols[i].Type.Kind, text)
				}
			}
			if int64(len(got)) != rows.RowCount() {
				t.Errorf("%s: end frame counts %d rows, stream carried %d\n%s",
					engine, rows.RowCount(), len(got), text)
			}
			if !sqlcheck.SameRows(got, want.Rows) {
				t.Errorf("%s: streamed rows differ from materialized (%d vs %d rows)\n%s",
					engine, len(got), len(want.Rows), text)
				continue
			}
			if strings.Contains(strings.ToLower(text), "order by") && !equalRows(got, want.Rows) {
				t.Errorf("%s: ORDER BY stream reordered rows\n%s", engine, text)
			}
		}
	}
}

// equalRows compares two row sets positionally.
func equalRows(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
