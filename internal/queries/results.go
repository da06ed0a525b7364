// Package queries defines the physical query plans shared by both engines
// (result schemas, literals, plan constants) plus independent reference
// implementations used as correctness oracles in tests.
//
// The paper's methodology (§3) requires both engines to execute the same
// physical plans; this package is the single source of truth for those
// plans' constants and for what each query must return.
package queries

import (
	"sort"

	"paradigms/internal/types"
)

// ---------------------------------------------------------------------
// Query literals (TPC-H validation parameter set, as used in the paper).
// ---------------------------------------------------------------------

var (
	// Q1: l_shipdate <= 1998-12-01 - 90 days.
	Q1Cutoff = types.ParseDate("1998-09-02")

	// Q6 parameters.
	Q6DateLo   = types.ParseDate("1994-01-01")
	Q6DateHi   = types.ParseDate("1995-01-01")
	Q6DiscLo   = types.Numeric(5) // 0.05
	Q6DiscHi   = types.Numeric(7) // 0.07
	Q6Quantity = types.Numeric(24 * types.NumericScale)

	// Q3 parameters.
	Q3Segment = "BUILDING"
	Q3Date    = types.ParseDate("1995-03-15")

	// Q9 parameter.
	Q9Color = "green"

	// Q18 parameter.
	Q18Quantity = types.Numeric(300 * types.NumericScale)

	// Q5 parameters.
	Q5Region = "ASIA"
	Q5DateLo = types.ParseDate("1994-01-01")
	Q5DateHi = types.ParseDate("1995-01-01")

	// SSB parameters.
	SSBQ11Year   = int32(1993)
	SSBQ11DiscLo = types.Numeric(1)
	SSBQ11DiscHi = types.Numeric(3)
	SSBQ11Qty    = types.Numeric(25 * types.NumericScale)
	SSBQ21Categ  = int32(12) // MFGR#12
	SSBQ21Region = int32(1)  // AMERICA
	SSBQ31Region = int32(2)  // ASIA
	SSBQ31YearLo = int32(1992)
	SSBQ31YearHi = int32(1997)
	SSBQ41Region = int32(1) // AMERICA
	SSBQ41MfgrLo = int32(1)
	SSBQ41MfgrHi = int32(2)
)

// ScannedTables lists, per query, the relations whose cardinalities the
// paper sums to normalize CPU counters "per tuple" (§3.4). A relation
// scanned twice (Q18's lineitem) appears twice.
var ScannedTables = map[string][]string{
	"Q1":   {"lineitem"},
	"Q6":   {"lineitem"},
	"Q3":   {"customer", "orders", "lineitem"},
	"Q9":   {"part", "supplier", "lineitem", "partsupp", "orders", "nation"},
	"Q18":  {"lineitem", "orders", "customer"},
	"Q5":   {"customer", "orders", "lineitem", "supplier", "nation", "region"},
	"Q1.1": {"date", "lineorder"},
	"Q2.1": {"part", "supplier", "date", "lineorder"},
	"Q3.1": {"customer", "supplier", "date", "lineorder"},
	"Q4.1": {"customer", "supplier", "part", "date", "lineorder"},
}

// ---------------------------------------------------------------------
// Result row types. Aggregate sums carry explicit scales so both engines
// produce bit-identical integers (scale 2 = cents, scale 4, scale 6).
// ---------------------------------------------------------------------

// Q1Row is one group of TPC-H Q1 (4 groups at any scale factor).
type Q1Row struct {
	ReturnFlag byte
	LineStatus byte
	SumQty     int64 // scale 2
	SumBase    int64 // scale 2: sum(l_extendedprice)
	SumDisc    int64 // scale 4: sum(l_extendedprice*(1-l_discount))
	SumCharge  int64 // scale 6: sum(l_extendedprice*(1-l_discount)*(1+l_tax))
	SumDiscnt  int64 // scale 2: sum(l_discount), for avg_disc
	Count      int64
}

// Q1Result is sorted by (returnflag, linestatus).
type Q1Result []Q1Row

// SortQ1 sorts a Q1 result into its canonical order.
func SortQ1(rs Q1Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].ReturnFlag != rs[j].ReturnFlag {
			return rs[i].ReturnFlag < rs[j].ReturnFlag
		}
		return rs[i].LineStatus < rs[j].LineStatus
	})
}

// Q6Result is sum(l_extendedprice * l_discount) at scale 4.
type Q6Result int64

// Q3Row is one of Q3's top-10 rows.
type Q3Row struct {
	OrderKey     int32
	Revenue      int64 // scale 4: sum(l_extendedprice*(1-l_discount))
	OrderDate    types.Date
	ShipPriority int32
}

// Q3Result holds the top 10 by (revenue desc, orderdate asc, orderkey asc).
type Q3Result []Q3Row

// Q3Less is the ordering of Q3's ORDER BY (with orderkey as an explicit
// tiebreaker so both engines produce identical rows).
func Q3Less(a, b Q3Row) bool {
	if a.Revenue != b.Revenue {
		return a.Revenue > b.Revenue
	}
	if a.OrderDate != b.OrderDate {
		return a.OrderDate < b.OrderDate
	}
	return a.OrderKey < b.OrderKey
}

// SortQ3 sorts into the canonical top-k order.
func SortQ3(rs Q3Result) { sort.Slice(rs, func(i, j int) bool { return Q3Less(rs[i], rs[j]) }) }

// Q9Row is one (nation, year) group of Q9.
type Q9Row struct {
	Nation int32 // n_nationkey; names resolved at output
	Year   int32
	Profit int64 // scale 4
}

// Q9Result is sorted by (nation asc, year desc).
type Q9Result []Q9Row

// SortQ9 sorts into the canonical order.
func SortQ9(rs Q9Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Nation != rs[j].Nation {
			return rs[i].Nation < rs[j].Nation
		}
		return rs[i].Year > rs[j].Year
	})
}

// Q18Row is one of Q18's top-100 rows.
type Q18Row struct {
	CustKey    int32
	OrderKey   int32
	OrderDate  types.Date
	TotalPrice types.Numeric
	SumQty     int64 // scale 2
}

// Q18Result holds the top 100 by (o_totalprice desc, o_orderdate asc,
// orderkey asc as tiebreaker).
type Q18Result []Q18Row

// Q18Less is Q18's ORDER BY.
func Q18Less(a, b Q18Row) bool {
	if a.TotalPrice != b.TotalPrice {
		return a.TotalPrice > b.TotalPrice
	}
	if a.OrderDate != b.OrderDate {
		return a.OrderDate < b.OrderDate
	}
	return a.OrderKey < b.OrderKey
}

// SortQ18 sorts into the canonical top-k order.
func SortQ18(rs Q18Result) { sort.Slice(rs, func(i, j int) bool { return Q18Less(rs[i], rs[j]) }) }

// Q5Row is one nation group of TPC-H Q5 (at most the five ASIA nations).
type Q5Row struct {
	Nation  int32 // n_nationkey; names resolved at output
	Revenue int64 // scale 4: sum(l_extendedprice*(1-l_discount))
}

// Q5Result is sorted by (revenue desc, nation asc as tiebreaker).
type Q5Result []Q5Row

// SortQ5 sorts into the canonical order.
func SortQ5(rs Q5Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Revenue != rs[j].Revenue {
			return rs[i].Revenue > rs[j].Revenue
		}
		return rs[i].Nation < rs[j].Nation
	})
}

// SSBQ11Result is sum(lo_extendedprice*lo_discount) at scale 4.
type SSBQ11Result int64

// SSBQ21Row is one (year, brand) group.
type SSBQ21Row struct {
	Year    int32
	Brand   int32
	Revenue int64 // scale 2
}

// SSBQ21Result is sorted by (year, brand).
type SSBQ21Result []SSBQ21Row

// SortSSBQ21 sorts into the canonical order.
func SortSSBQ21(rs SSBQ21Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Year != rs[j].Year {
			return rs[i].Year < rs[j].Year
		}
		return rs[i].Brand < rs[j].Brand
	})
}

// SSBQ31Row is one (c_nation, s_nation, year) group.
type SSBQ31Row struct {
	CNation int32
	SNation int32
	Year    int32
	Revenue int64 // scale 2
}

// SSBQ31Result is sorted by (year asc, revenue desc) per SSB, with
// nation keys as tiebreakers.
type SSBQ31Result []SSBQ31Row

// SortSSBQ31 sorts into the canonical order.
func SortSSBQ31(rs SSBQ31Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Year != rs[j].Year {
			return rs[i].Year < rs[j].Year
		}
		if rs[i].Revenue != rs[j].Revenue {
			return rs[i].Revenue > rs[j].Revenue
		}
		if rs[i].CNation != rs[j].CNation {
			return rs[i].CNation < rs[j].CNation
		}
		return rs[i].SNation < rs[j].SNation
	})
}

// SSBQ41Row is one (year, c_nation) group.
type SSBQ41Row struct {
	Year    int32
	CNation int32
	Profit  int64 // scale 2
}

// SSBQ41Result is sorted by (year, c_nation).
type SSBQ41Result []SSBQ41Row

// SortSSBQ41 sorts into the canonical order.
func SortSSBQ41(rs SSBQ41Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Year != rs[j].Year {
			return rs[i].Year < rs[j].Year
		}
		return rs[i].CNation < rs[j].CNation
	})
}

// TPCHQueries and SSBQueries are the canonical experiment query lists in
// paper order (the subsets every paper experiment iterates). The
// named-query table — which additionally carries Q5, an extension beyond
// the paper's subset — lives in internal/registry.
var (
	TPCHQueries = []string{"Q1", "Q6", "Q3", "Q9", "Q18"}
	SSBQueries  = []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"}
)
