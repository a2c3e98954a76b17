package partition

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// TestRefineShardedFault pins the partition.refineshard site: an armed
// plan firing in the stitch phase surfaces as a typed, injection-marked
// error from the sharded kernels, and the serial kernels never hit it.
func TestRefineShardedFault(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(11)), 300, 4, 3)
	parent := Single(r.Cols[0], r.Cards[0])
	pool := engine.NewPool(2)

	defer faults.Arm(faults.PartitionRefineShard, faults.Plan{Kind: faults.KindPanic, N: 2})()
	_, err := NewKernels(pool, 8, nil).Refine(ctx, parent, r.Cols[1], r.Cards[1])
	if err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *engine.PanicError", err)
	}
	if faults.Armed(faults.PartitionRefineShard) {
		t.Fatal("plan did not fire")
	}

	// The serial kernel (a one-worker Kernels) never touches the site:
	// an armed plan stays armed.
	defer faults.Arm(faults.PartitionRefineShard, faults.Plan{Kind: faults.KindPanic})()
	if _, err := NewKernels(nil, 8, nil).Refine(ctx, parent, r.Cols[1], r.Cards[1]); err != nil {
		t.Fatal(err)
	}
	if !faults.Armed(faults.PartitionRefineShard) {
		t.Fatal("serial Refine hit the shard site")
	}
	faults.Disarm(faults.PartitionRefineShard)
}

// TestShardStatsCount pins the pool counters: a genuinely sharded
// refine reports its shard and scattered-row counts through
// Pool.ShardStats, and FoldShardStats lands them on RunStats.
func TestShardStatsCount(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(13)), 400, 3, 2)
	parent := Single(r.Cols[0], r.Cards[0])
	pool := engine.NewPool(2)
	got, err := NewKernels(pool, 16, nil).Refine(ctx, parent, r.Cols[1], r.Cards[1])
	if err != nil {
		t.Fatal(err)
	}
	shards, rows := pool.ShardStats()
	if shards < 2 {
		t.Fatalf("shards = %d, want >= 2", shards)
	}
	if rows != int64(got.Size()) {
		t.Fatalf("rows scattered = %d, want %d", rows, got.Size())
	}
	rs := engine.NewRunStats("test", 2)
	pool.FoldShardStats(rs)
	if rs.ShardsBuilt != shards || rs.RowsScattered != rows {
		t.Fatalf("RunStats = %d/%d, want %d/%d", rs.ShardsBuilt, rs.RowsScattered, shards, rows)
	}
}
