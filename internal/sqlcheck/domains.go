package sqlcheck

import "paradigms/internal/storage"

// Fixed differential cases for the two phase-one layouts of a grouped
// aggregation (internal/logical's aggDomain): an array over the group
// key's dense domain, or the hashed pre-aggregation. Each case names
// the layout its plan must choose; the data decides it, through the
// key's exact bounds and the plan's row estimate.

// KeyDomainCase is one grouped text over KeyDomainDB and whether its
// aggregation must run as an array.
type KeyDomainCase struct {
	Name  string
	Text  string
	Array bool
}

// KeyDomainCases covers both sides of the rule.
var KeyDomainCases = []KeyDomainCase{
	// c_nationkey is demoted to a first-value slot (c_custkey, the
	// reduced key, determines it) and carries negative values.
	{Name: "array-min-max-first", Array: true,
		Text: "select c_custkey, c_nationkey, min(o_totalprice), max(o_totalprice), sum(o_totalprice), count(*) " +
			"from customer, orders where c_custkey = o_custkey group by c_custkey, c_nationkey"},
	// Every o_shippriority is negative: contiguous once zero-extended.
	{Name: "array-negative-key", Array: true,
		Text: "select o_shippriority, count(*), min(o_orderkey), max(o_totalprice) from orders group by o_shippriority"},
	// c_nationkey spans zero, so its zero-extended words do not.
	{Name: "hashed-mixed-sign-key", Array: false,
		Text: "select c_nationkey, count(*), min(c_custkey), max(c_custkey) from customer group by c_nationkey"},
	// A range filter puts the estimate at 0.3 × rows, under the key's
	// span.
	{Name: "hashed-span-over-estimate", Array: false,
		Text: "select o_orderkey, sum(o_totalprice), count(*) from orders where o_totalprice > 10.00 group by o_orderkey"},
}

// KeyDomainDB is a qualifying MiniTPCH of 200 rows per fact table
// whose o_shippriority runs over −1 … −37 and whose c_nationkey runs
// over −2 … 2.
func KeyDomainDB() *storage.Database {
	db := MiniTPCH(200, true)
	for i, prio := 0, db.Rel("orders").Int32("o_shippriority"); i < len(prio); i++ {
		prio[i] = int32(-1 - i%37)
	}
	for i, nat := 0, db.Rel("customer").Int32("c_nationkey"); i < len(nat); i++ {
		nat[i] = int32(i%5 - 2)
	}
	return db
}
