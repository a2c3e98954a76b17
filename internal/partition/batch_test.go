package partition

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engine"
)

func randColumn(rng *rand.Rand, rows, card int) []int32 {
	col := make([]int32, rows)
	for i := range col {
		col[i] = int32(rng.Intn(card))
	}
	return col
}

func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(3))
	p := Single(randColumn(rng, 100, 3), 3)
	col := randColumn(rng, 100, 3)
	jobs := make([]IntersectJob, 500)
	for i := range jobs {
		jobs[i] = IntersectJob{Part: p, Col: col, Card: 3}
	}
	k := NewKernels(engine.NewPool(2), 0, nil)
	if _, err := k.IntersectAll(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Errorf("IntersectAll err = %v, want context.Canceled", err)
	}
	rjobs := make([]RefineJob, 500)
	for i := range rjobs {
		rjobs[i] = RefineJob{Part: p, Cols: [][]int32{col}, Cards: []int{3}}
	}
	if _, err := k.RefineAll(ctx, rjobs); !errors.Is(err, context.Canceled) {
		t.Errorf("RefineAll err = %v, want context.Canceled", err)
	}
}
