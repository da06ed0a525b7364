package logical

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"paradigms/internal/catalog"
)

// mergeOracle is MergeGroupRows written with a Go map, one copy per
// group, in first-seen order.
func mergeOracle(agg *Aggregate, parts []*Partial) [][]int64 {
	nk := len(agg.Keys)
	idx := make(map[[2]int64]int)
	var out [][]int64
	for _, p := range parts {
		for _, r := range p.Groups {
			var k [2]int64
			copy(k[:], r[:nk])
			j, ok := idx[k]
			if !ok {
				idx[k] = len(out)
				out = append(out, append([]int64(nil), r...))
				continue
			}
			for a, s := range agg.Aggs {
				v, d := r[nk+a], &out[j][nk+a]
				switch s.Op {
				case OpSum, OpCount:
					*d += v
				case OpMin:
					*d = min(*d, v)
				case OpMax:
					*d = max(*d, v)
				}
			}
		}
	}
	return out
}

func TestMergeGroupRows(t *testing.T) {
	aggs := []AggSpec{{Op: OpSum}, {Op: OpCount}, {Op: OpMin}, {Op: OpMax}, {Op: OpFirst}}
	rng := rand.New(rand.NewSource(7))
	for _, nk := range []int{1, 2} {
		agg := &Aggregate{Keys: make([]*catalog.Column, nk), Aggs: aggs}
		for _, domain := range []int{1, 5, 300, 5000} {
			// Three partials over one key domain: each holds a key at most
			// once, and keys repeat across partials.
			var parts []*Partial
			seen := make(map[[2]int64]bool)
			var order [][2]int64
			for p := 0; p < 3; p++ {
				part := &Partial{}
				for _, d := range rng.Perm(domain)[:rng.Intn(domain)+1] {
					var k [2]int64
					if nk == 1 {
						// Spread over the word domain, negatives included.
						k[0] = int64(d-domain/2) * 0x1e3779b97f4a7c15
					} else {
						k[0], k[1] = int64(int32(d%17-8)), int64(int32(d/17-100))
					}
					if !seen[k] {
						seen[k] = true
						order = append(order, k)
					}
					row := make([]int64, nk+len(aggs))
					copy(row, k[:nk])
					v := rng.Int63n(2000) - 1000
					// The first slot is determined by the key, as OpFirst slots are.
					copy(row[nk:], []int64{v, rng.Int63n(9) + 1, v, v, k[0] ^ 0x5a})
					part.Groups = append(part.Groups, row)
				}
				parts = append(parts, part)
			}
			want := mergeOracle(agg, parts)
			before := mergeOracle(agg, parts[:1]) // a copy of partial 0
			got := MergeGroupRows(agg, parts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nk=%d domain=%d: merge differs from the map oracle\n got %v\nwant %v", nk, domain, got, want)
			}
			for i, r := range got {
				var k [2]int64
				copy(k[:], r[:nk])
				if k != order[i] {
					t.Fatalf("nk=%d domain=%d: group %d is %v, first seen was %v", nk, domain, i, k, order[i])
				}
			}
			if !reflect.DeepEqual(parts[0].Groups, before) {
				t.Fatalf("nk=%d domain=%d: merging wrote into an input partial", nk, domain)
			}
		}
	}
	agg := &Aggregate{Keys: make([]*catalog.Column, 1), Aggs: aggs}
	if got := MergeGroupRows(agg, []*Partial{{}, {}}); got != nil {
		t.Fatalf("empty partials merge to %v, want nil", got)
	}
}

// TestTopKMatchesStableSort: ORDER BY … LIMIT k keeps exactly the
// first k rows of the stable sort, ties broken by input position.
func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 300
	for _, keys := range [][]SortKey{
		{{Item: 0}},
		{{Item: 0, Desc: true}},
		{{Item: 0}, {Item: 1, Desc: true}},
		{{Item: 1, Desc: true}, {Item: 0}},
		{{Item: 1}, {Item: 0, Desc: true}, {Item: 2}},
	} {
		rows := make([][]int64, n)
		for i := range rows {
			// Heavy ties on the first two columns; the last column is the
			// input position, so a wrong tie-break shows.
			rows[i] = []int64{rng.Int63n(4) - 2, rng.Int63n(3), rng.Int63n(2), int64(i)}
		}
		for _, k := range []int{0, 1, 10, n - 1, n, n + 5} {
			pl := &Plan{Sort: keys, Limit: k}
			res, err := pl.FinalizeRows(append([][]int64(nil), rows...))
			if err != nil {
				t.Fatal(err)
			}
			want := append([][]int64(nil), rows...)
			sort.SliceStable(want, func(i, j int) bool {
				for _, sk := range keys {
					a, b := want[i][sk.Item], want[j][sk.Item]
					if a != b {
						return (a < b) != sk.Desc
					}
				}
				return false
			})
			want = want[:min(k, n)]
			if !reflect.DeepEqual(res.Rows, want) {
				t.Fatalf("keys %+v k=%d: top-k differs from stable sort + limit\n got %v\nwant %v", keys, k, res.Rows, want)
			}
		}
	}
}
