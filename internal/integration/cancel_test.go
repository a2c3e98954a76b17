package integration

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/runstate"
	"repro/internal/sampling"
)

// TestCancellationSurfacesEverywhere: every algorithm must return promptly
// with an error on a pre-cancelled context — this is what keeps the
// benchmark harness's TL runs from leaking work.
func TestCancellationSurfacesEverywhere(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(5))
	r := dataset.Random(rng, 80, 6, 3)

	for _, name := range []string{"tane", "fdep", "fdep1", "fdep2", "hyfd", "dhyfd"} {
		if _, _, err := run(ctx, name, r, runstate.Env{}); err == nil {
			t.Errorf("%s ignored cancellation", name)
		}
	}
	if _, err := sampling.NegativeCoverCtx(ctx, r); err == nil {
		t.Error("negative cover ignored cancellation")
	}
}

// TestParallelCancellation: the worker pool must drain on cancellation.
func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := dataset.ByName("ncvoter")
	r := b.Generate(300, 12)
	if _, _, err := run(ctx, "dhyfd", r, runstate.Env{Workers: 4}); err == nil {
		t.Error("parallel dhyfd ignored cancellation")
	}
}
