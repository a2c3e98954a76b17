package fdtree_test

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/fdtree"
	"repro/internal/sampling"
)

// BenchmarkInductHepatitis replays the full negative cover of hepatitis
// 155×20, in the descending order the hybrids induct non-FDs, into a tree
// holding ∅ → R. Induction dominates DHyFD and HyFD on this input, and
// unlike the random non-FDs of BenchmarkSynergizedInduction these agree
// sets have the structure of real data.
func BenchmarkInductHepatitis(b *testing.B) {
	bm, err := dataset.ByName("hepatitis")
	if err != nil {
		b.Fatal(err)
	}
	r := bm.Generate(155, 20)
	sets := append([]bitset.Set(nil), sampling.NegativeCover(r).Sets()...)
	sampling.SortSetsDescending(sets)
	n := r.NumCols()
	full := bitset.Full(n)
	b.ReportAllocs()
	b.ResetTimer()
	var fds int
	for i := 0; i < b.N; i++ {
		tr := fdtree.NewWithFullRHS(n)
		for _, x := range sets {
			tr.Induct(x, full.Difference(x))
		}
		fds = tr.CountFDs()
	}
	b.ReportMetric(float64(len(sets)), "non-fds")
	b.ReportMetric(float64(fds), "fds")
}
