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

func BenchmarkIntersect100k(b *testing.B) {
	a := randomColumn(100_000, 50, 1)
	c := randomColumn(100_000, 50, 2)
	pa, pc := Single(a, 50), Single(c, 50)
	probe := NewProbeTable(pc)
	k := NewKernels(nil, 0, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = k.Intersect(ctx, pa, probe)
	}
}

func BenchmarkRefineVsIntersect(b *testing.B) {
	// The micro-comparison behind the DDM: dynamic refinement vs the PLI
	// product TANE uses.
	a := randomColumn(50_000, 200, 1)
	c := randomColumn(50_000, 200, 2)
	pa, pc := Single(a, 200), Single(c, 200)
	k := NewKernels(nil, 0, nil)
	ctx := context.Background()
	b.Run("refine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = k.Refine(ctx, pa, c, 200)
		}
	})
	b.Run("intersect", func(b *testing.B) {
		probe := NewProbeTable(pc)
		for i := 0; i < b.N; i++ {
			_, _ = k.Intersect(ctx, pa, probe)
		}
	})
}

// TestIntersectorAllocsPerRun pins the allocation profile of the reused
// intersection kernel: after warm-up, one Intersect costs only its output
// (partition struct, backing, offsets, cluster views — plus bounded
// offsets growth), never a map or a per-call probe table.
func TestIntersectorAllocsPerRun(t *testing.T) {
	a := randomColumn(20_000, 50, 1)
	c := randomColumn(20_000, 50, 2)
	pa, pc := Single(a, 50), Single(c, 50)
	ix := &intersector{}
	probe := NewProbeTable(pc)
	ix.intersect(pa, probe) // warm scratch
	if got := testing.AllocsPerRun(10, func() { ix.intersect(pa, probe) }); got > 4 {
		t.Errorf("Intersect allocs/run = %.0f, want <= 4", got)
	}
}

// TestProbeTableFillReuses: refilling an adequately sized probe table
// allocates nothing — the per-level reuse IntersectAll relies on.
func TestProbeTableFillReuses(t *testing.T) {
	a := randomColumn(20_000, 50, 1)
	c := randomColumn(20_000, 50, 2)
	pa, pc := Single(a, 50), Single(c, 50)
	probe := NewProbeTable(pa)
	if got := testing.AllocsPerRun(10, func() { probe = probe.Fill(pc) }); got != 0 {
		t.Errorf("Fill allocs/run = %.0f, want 0", got)
	}
	want := NewProbeTable(pc)
	for i := range want {
		if probe[i] != want[i] {
			t.Fatalf("refilled probe differs at row %d", i)
		}
	}
}
