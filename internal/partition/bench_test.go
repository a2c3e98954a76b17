package partition

import (
	"context"
	"math/rand"
	"testing"
)

func randomColumn(n, card int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	col := make([]int32, n)
	for i := range col {
		col[i] = int32(rng.Intn(card))
	}
	return col
}

func BenchmarkSingle100k(b *testing.B) {
	col := randomColumn(100_000, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Single(col, 1000)
	}
}

func BenchmarkRefine100k(b *testing.B) {
	a := randomColumn(100_000, 50, 1)
	c := randomColumn(100_000, 50, 2)
	p := Single(a, 50)
	k := NewKernels(nil, 0, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = k.Refine(ctx, p, c, 50)
	}
}

// BenchmarkIntersect100k times one PLI product as TANE runs it: an
// IntersectAll job refining π_a by column c.
func BenchmarkIntersect100k(b *testing.B) {
	a := randomColumn(100_000, 50, 1)
	c := randomColumn(100_000, 50, 2)
	jobs := []IntersectJob{{Part: Single(a, 50), Col: c, Card: 50}}
	k := NewKernels(nil, 0, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = k.IntersectAll(ctx, jobs)
	}
}

func BenchmarkRefineVsIntersect(b *testing.B) {
	// The micro-comparison behind the DDM: dynamic refinement vs the PLI
	// product TANE uses, which is the same kernel run as a batch job.
	a := randomColumn(50_000, 200, 1)
	c := randomColumn(50_000, 200, 2)
	pa := Single(a, 200)
	k := NewKernels(nil, 0, nil)
	ctx := context.Background()
	b.Run("refine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = k.Refine(ctx, pa, c, 200)
		}
	})
	b.Run("intersect", func(b *testing.B) {
		jobs := []IntersectJob{{Part: pa, Col: c, Card: 200}}
		for i := 0; i < b.N; i++ {
			_, _ = k.IntersectAll(ctx, jobs)
		}
	})
}

// TestRefinerAllocsPerRun pins the allocation profile of the product
// kernel: after warm-up, one refine costs its partition struct, backing
// and offsets — at most three allocations, however many clusters it
// emits — and both arrays are exact-size, with no spare capacity.
func TestRefinerAllocsPerRun(t *testing.T) {
	c := randomColumn(20_000, 50, 2)
	allocs := map[int]float64{}
	for _, card := range []int{5, 5000} { // ~5 clusters vs ~5000
		p := Single(randomColumn(20_000, card, 1), card)
		rf := &Refiner{}
		out := rf.refine(p, c, 50) // warm scratch
		if len(out.backing) != cap(out.backing) || len(out.offsets) != cap(out.offsets) {
			t.Errorf("card %d: backing len/cap %d/%d, offsets len/cap %d/%d, want exact-size",
				card, len(out.backing), cap(out.backing), len(out.offsets), cap(out.offsets))
		}
		allocs[card] = testing.AllocsPerRun(10, func() { rf.refine(p, c, 50) })
		if allocs[card] > 3 {
			t.Errorf("card %d: refine allocs/run = %.0f, want <= 3", card, allocs[card])
		}
	}
	if allocs[5] != allocs[5000] {
		t.Errorf("refine allocs/run depend on the cluster count: %v", allocs)
	}
}
