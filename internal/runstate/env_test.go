package runstate

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/topk"
)

// TestHarnessPanicKeepsReport: a driver body that panics after a retried
// pool item, a sharded-kernel count, cache traffic and a top-k admission
// still returns a report carrying all of them, the algorithm name and the
// heap's partial top-k, alongside a *PanicError.
func TestHarnessPanicKeepsReport(t *testing.T) {
	defer faults.Reset()
	faults.Arm(faults.EngineWorker, faults.Plan{Kind: faults.KindPanic, N: 1})
	cache := partition.NewCache(1<<20, nil)
	heap := topk.New(3)
	admitted := dep.FD{LHS: bitset.FromAttrs(2, 0), RHS: bitset.FromAttrs(2, 1)}

	h := Env{Workers: 2, Cache: cache, TopK: heap, Retries: 2}.Start("probe")
	fds, rs, err := h.Run(func() ([]dep.FD, error) {
		if err := h.Pool.Run(context.Background(), 1, func(_, _ int) {}); err != nil {
			t.Errorf("the transient fault was not absorbed: %v", err)
		}
		h.Pool.CountShards(3, 30)
		if p := h.Cache.Get(bitset.FromAttrs(2, 0)); p != nil {
			t.Error("empty cache hit")
		}
		h.TopK.Admit(admitted, 7)
		panic("driver bug")
	})

	var perr *engine.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if rs == nil {
		t.Fatal("nil report")
	}
	if rs.Algorithm != "probe" || !rs.Cancelled {
		t.Errorf("report %q cancelled=%v, want probe, true", rs.Algorithm, rs.Cancelled)
	}
	if rs.Counters["attempts"] != 2 || rs.Counters["retries"] != 1 {
		t.Errorf("retry counters %v, want attempts=2 retries=1", rs.Counters)
	}
	if rs.ShardsBuilt != 3 || rs.RowsScattered != 30 {
		t.Errorf("shard counters %d/%d, want 3/30", rs.ShardsBuilt, rs.RowsScattered)
	}
	if rs.CacheMisses != 1 {
		t.Errorf("cache misses %d, want 1", rs.CacheMisses)
	}
	if rs.Counters["topk_admitted"] != 1 {
		t.Errorf("top-k counters %v, want topk_admitted=1", rs.Counters)
	}
	if len(fds) != 1 || fds[0].Key() != admitted.Key() || rs.FDs != 1 {
		t.Errorf("partial top-k %v (FDs=%d), want the admitted FD", fds, rs.FDs)
	}
}

// TestHarnessErrorDropsCover: without top-k an erroring body returns no
// cover; a clean one returns its cover with the count in the report.
func TestHarnessErrorDropsCover(t *testing.T) {
	fd := dep.FD{LHS: bitset.New(1), RHS: bitset.FromAttrs(1, 0)}
	h := Env{}.Start("probe")
	fds, rs, err := h.Run(func() ([]dep.FD, error) { return []dep.FD{fd}, context.Canceled })
	if !errors.Is(err, context.Canceled) || fds != nil || rs.FDs != 0 || !rs.Cancelled {
		t.Errorf("error run: fds %v FDs %d err %v cancelled %v", fds, rs.FDs, err, rs.Cancelled)
	}
	if rs.Workers != 1 {
		t.Errorf("workers %d, want the clamped 1", rs.Workers)
	}
	h = Env{}.Start("probe")
	fds, rs, err = h.Run(func() ([]dep.FD, error) { return []dep.FD{fd}, nil })
	if err != nil || len(fds) != 1 || rs.FDs != 1 || rs.Cancelled {
		t.Errorf("clean run: fds %v FDs %d err %v cancelled %v", fds, rs.FDs, err, rs.Cancelled)
	}
}
