package tw

import (
	"context"
	"reflect"
	"testing"

	"paradigms/internal/queries"
	"paradigms/internal/tpch"
)

func TestQ1AdaptiveMatchesReference(t *testing.T) {
	for _, sf := range []float64{0.01, 0.05} {
		db := tpch.Generate(sf, 0)
		want := queries.RefQ1(db)
		for _, threads := range []int{1, 4} {
			for _, vec := range []int{64, 1000, 8192} {
				got := Q1Adaptive(db, threads, vec)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("sf=%v threads=%d vec=%d: adaptive Q1 mismatch", sf, threads, vec)
				}
			}
		}
	}
}

func TestQ1AdaptiveAgreesWithHashVariant(t *testing.T) {
	db := tpch.Generate(0.02, 0)
	hash := Q1Ctx(context.Background(), db, 2, 0)
	adaptive := Q1Adaptive(db, 2, 0)
	if !reflect.DeepEqual(hash, adaptive) {
		t.Errorf("hash and ordered aggregation disagree:\n%v\n%v", hash, adaptive)
	}
}
