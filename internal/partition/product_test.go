package partition

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/relation"
)

// nullRelation is a random categorical relation whose columns hold about
// 20% nulls, encoded under sem.
func nullRelation(seed int64, rows, cols int, sem relation.NullSemantics) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	spec := dataset.Spec{Name: "nulls", Rows: rows, Seed: seed, Semantics: sem}
	for c := 0; c < cols; c++ {
		spec.Columns = append(spec.Columns, dataset.Column{
			Kind: dataset.Categorical, Card: 2 + rng.Intn(5), NullRate: 0.2,
		})
	}
	return dataset.Generate(spec)
}

// TestIntersectAllProductEquivalence: on random relations with nulls,
// under both null semantics and at workers {1, 2, 4}, the product of
// π_{P∪a} and π_{P∪b} computed by IntersectAll from either parent equals
// π_{P∪{a,b}} built by an uncached ForAttrs, and every worker count
// produces byte-identical output.
func TestIntersectAllProductEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, sem := range []relation.NullSemantics{relation.NullEqNull, relation.NullNeqNull} {
		for trial := 0; trial < 8; trial++ {
			r := nullRelation(int64(trial), 40+17*trial, 5, sem)
			n := r.NumCols()
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			// Random prefixes P (possibly empty) and a < b outside P.
			type product struct{ prefix, a, b int }
			var products []product
			var jobs []IntersectJob
			var want []*Partition
			for i := 0; i < 6; i++ {
				perm := rng.Perm(n)
				a, b := perm[0], perm[1]
				var prefix []int
				for _, c := range perm[2:] {
					if rng.Intn(2) == 0 {
						prefix = append(prefix, c)
					}
				}
				pa := forAttrs(bitset.FromAttrs(n, append(prefix, a)...), r.Cols, r.Cards)
				pb := forAttrs(bitset.FromAttrs(n, append(prefix, b)...), r.Cols, r.Cards)
				pab := forAttrs(bitset.FromAttrs(n, append(prefix, a, b)...), r.Cols, r.Cards)
				jobs = append(jobs,
					IntersectJob{Part: pa, Col: r.Cols[b], Card: r.Cards[b]},
					IntersectJob{Part: pb, Col: r.Cols[a], Card: r.Cards[a]})
				want = append(want, pab, pab)
				products = append(products, product{len(prefix), a, b}, product{len(prefix), b, a})
			}
			var first []*Partition
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v trial %d workers %d", sem, trial, workers)
				got, err := NewKernels(engine.NewPool(workers), 0, nil).IntersectAll(ctx, jobs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if first == nil {
					for i, p := range got {
						// Equal sorts its operands: compare clones so the
						// byte-identity check below sees the kernel layout.
						if !p.Clone().Equal(want[i].Clone()) {
							t.Fatalf("%s job %d (|P|=%d, refine π_{P∪%d} by %d): product differs from ForAttrs",
								name, i, products[i].prefix, products[i].a, products[i].b)
						}
					}
					first = got
					continue
				}
				for i := range got {
					if !got[i].Identical(first[i]) {
						t.Fatalf("%s job %d: layout differs from one worker", name, i)
					}
				}
			}
		}
	}
}

// bucketRef refines p by col cluster by cluster through the bucket path
// alone (RefineClusterInto has no pair shortcut), laid out as refine lays
// its output.
func bucketRef(p *Partition, col []int32, card int) *Partition {
	rf := NewRefiner(card)
	var arena []int32
	var subs [][]int32
	for i := 0; i < p.Card(); i++ {
		arena, subs = rf.RefineClusterInto(p.Cluster(i), col, card, arena, subs)
	}
	return fromClusters(p.NRows, subs)
}

// TestRefinePairFastPath: refining pairs — rows with equal codes, with
// unequal codes, and with null codes under both semantics — emits
// exactly the bytes the bucket path emits.
func TestRefinePairFastPath(t *testing.T) {
	for _, sem := range []relation.NullSemantics{relation.NullEqNull, relation.NullNeqNull} {
		for trial := 0; trial < 10; trial++ {
			r := nullRelation(int64(50+trial), 60, 3, sem)
			// π over two columns is mostly pairs; refine it by the third.
			p := forAttrs(bitset.FromAttrs(3, 0, 1), r.Cols, r.Cards)
			pairs := 0
			for i := 0; i < p.Card(); i++ {
				if len(p.Cluster(i)) == 2 {
					pairs++
				}
			}
			if pairs == 0 {
				continue
			}
			got := refineRef(p, r.Cols[2], r.Cards[2])
			if want := bucketRef(p, r.Cols[2], r.Cards[2]); !got.Identical(want) {
				t.Fatalf("%v trial %d: pair fast path %v, bucket path %v", sem, trial, clustersOf(got), clustersOf(want))
			}
		}
	}
	// Hand-made pairs: equal codes survive, unequal codes split, and
	// under null ≠ null two nulls carry distinct codes and split too.
	p := fromClusters(8, [][]int32{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
	col := []int32{3, 3, 1, 2, 7, 8, 0, 0} // rows 4, 5: nulls with fresh codes
	got := refineRef(p, col, 9)
	if want := bucketRef(p, col, 9); !got.Identical(want) || got.Card() != 2 {
		t.Fatalf("pairs refined to %v, want %v (two clusters)", clustersOf(got), clustersOf(want))
	}
}
