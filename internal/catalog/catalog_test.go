package catalog

import (
	"sync"
	"testing"

	"paradigms/internal/ssb"
	"paradigms/internal/tpch"
)

func TestFromDatabaseTPCH(t *testing.T) {
	cat := FromDatabase(tpch.Generate(0.01, 0))
	li := cat.Table("lineitem")
	if li == nil {
		t.Fatal("lineitem missing from catalog")
	}
	if li.Key != "" {
		t.Errorf("lineitem should have no unique key, got %q", li.Key)
	}
	if got := li.Column("l_shipdate").Type.Kind; got != Date {
		t.Errorf("l_shipdate kind = %v, want date", got)
	}
	if got := li.Column("l_discount").Type; got != (Type{Kind: Numeric, Scale: 2}) {
		t.Errorf("l_discount type = %+v, want numeric scale 2", got)
	}
	ord := cat.Table("orders")
	if ord.Key != "o_orderkey" {
		t.Errorf("orders key = %q, want o_orderkey", ord.Key)
	}
	if cat.Table("nosuch") != nil {
		t.Error("unknown table should resolve to nil")
	}
	if got := cat.Table("customer").Column("c_mktsegment").Type.Kind; got != String {
		t.Errorf("c_mktsegment kind = %v, want string", got)
	}
}

func TestFromDatabaseSSBScales(t *testing.T) {
	cat := FromDatabase(ssb.Generate(0.01, 0))
	lo := cat.Table("lineorder")
	if got := lo.Column("lo_discount").Type; got != (Type{Kind: Numeric, Scale: 0}) {
		t.Errorf("lo_discount type = %+v, want numeric scale 0", got)
	}
	if got := lo.Column("lo_quantity").Type; got != (Type{Kind: Numeric, Scale: 2}) {
		t.Errorf("lo_quantity type = %+v, want numeric scale 2", got)
	}
	if d := cat.Table("date"); d == nil || d.Key != "d_datekey" {
		t.Fatalf("date dimension key not annotated: %+v", d)
	}
}

// TestColumnNDV: exhaustive samples count exactly (strings included), a
// nearly all-distinct sample of a large column reads as key-like, a
// low-cardinality fact column is counted from its bounded sample, and
// concurrent first uses agree.
func TestColumnNDV(t *testing.T) {
	cat := FromDatabase(tpch.Generate(0.01, 0))
	li := cat.Table("lineitem")
	for _, tc := range []struct {
		table, col string
		want       int
	}{
		{"region", "r_name", 5},
		{"customer", "c_mktsegment", 5},
		{"nation", "n_nationkey", 25},
		{"customer", "c_custkey", cat.Table("customer").Rows()},
		{"lineitem", "l_orderkey", li.Rows()},
		{"lineitem", "l_quantity", 50},
		{"lineitem", "l_returnflag", 3},
	} {
		col := cat.Table(tc.table).Column(tc.col)
		var wg sync.WaitGroup
		got := make([]int, 4)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = col.NDV()
			}(i)
		}
		wg.Wait()
		for _, g := range got {
			if g != tc.want {
				t.Errorf("%s.%s NDV = %v, want %d", tc.table, tc.col, got, tc.want)
				break
			}
		}
	}
}

func TestResolve(t *testing.T) {
	cat := FromDatabase(tpch.Generate(0.01, 0))
	tables := []*Table{cat.Table("customer"), cat.Table("orders")}
	if got := Resolve(tables, "o_orderdate"); len(got) != 1 || got[0].Table.Name != "orders" {
		t.Errorf("Resolve(o_orderdate) = %v", got)
	}
	if got := Resolve(tables, "nope"); got != nil {
		t.Errorf("Resolve(nope) = %v, want nil", got)
	}
}
