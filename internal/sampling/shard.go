package sampling

import (
	"context"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/relation"
)

// This file shards the agree-set extraction passes. Phase 1 collects
// per-shard agree sets into shard-local NonFDSets on pool workers —
// local dedup bounds each shard's memory by its distinct sets — and
// phase 2 reconciles them sequentially in shard order into the shared
// set. Because NonFDSet.Add keeps first occurrences in insertion order
// and shard s's comparisons precede shard s+1's in the serial scan
// order, the merged set's contents AND insertion order are identical to
// the serial pass — so induction order downstream, and therefore the
// discovered cover, cannot depend on the shard size.

// ClusterNeighborSampleSharded is ClusterNeighborSample on the pool:
// the partition's clusters split into ~shardSize-row contiguous ranges
// (partition.ShardClusters) that sample concurrently, then merge. It
// fires sampling.run once per call like the serial pass, plus one
// sampling.shardmerge hit per shard folded; single-shard (or
// single-worker) inputs degenerate to the serial pass. The returned
// newNonFDs and comparisons counts equal the serial pass's exactly.
func ClusterNeighborSampleSharded(ctx context.Context, pool *engine.Pool, r *relation.Relation, p *partition.Partition, distance int, dst *NonFDSet, shardSize int) (newNonFDs, comparisons int, err error) {
	cuts := partition.ShardClusters(p, shardSize)
	nshards := len(cuts) - 1
	if nshards <= 1 || pool == nil || pool.Workers() == 1 {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		newNonFDs, comparisons = ClusterNeighborSample(r, p, distance, dst)
		return newNonFDs, comparisons, nil
	}
	faults.Check(faults.SamplingRun)
	distance = max(distance, 1)

	// Phase 1: sample each cluster range into a shard-local set.
	// Re-running an item is safe: it samples into a fresh local set from
	// the immutable partition and relation, and writes only its own
	// locals[s] / comps[s] slots.
	locals := make([]*NonFDSet, nshards)
	comps := make([]int, nshards)
	err = pool.Run(ctx, nshards, func(_, s int) {
		local := NewNonFDSet(r.NumCols())
		_, comps[s] = sampleClusters(r, p, cuts[s], cuts[s+1], distance, local)
		locals[s] = local
	})
	if err != nil {
		return 0, 0, err
	}

	// Phase 2: fold the shard-local sets into dst in shard order. The
	// merge runs as one pool item so an injected sampling.shardmerge
	// fault recovers into a typed *engine.PanicError instead of escaping
	// as a raw panic; Add is idempotent, so the merge is safe to re-enter
	// after a transient failure.
	rows := int64(0)
	err = pool.Run(ctx, 1, func(_, _ int) {
		for s, local := range locals {
			faults.Check(faults.SamplingShardMerge)
			for _, x := range local.Sets() {
				if dst.Add(x) {
					newNonFDs++
				}
			}
			comparisons += comps[s]
			rows += int64(local.Len())
		}
	})
	if err != nil {
		return 0, 0, err
	}
	pool.CountShards(int64(nshards), rows)
	return newNonFDs, comparisons, nil
}

// NegativeCoverSharded is NegativeCoverCtx on the pool: the quadratic
// all-pairs scan shards by contiguous outer-row ranges, each collecting
// its agree sets locally, then merges in range order — so the resulting
// set and its insertion order are identical to the serial scan. Fires
// one sampling.shardmerge hit per shard folded; single-shard (or
// single-worker) inputs degenerate to the serial pass.
func NegativeCoverSharded(ctx context.Context, pool *engine.Pool, r *relation.Relation, shardSize int) (*NonFDSet, error) {
	n := r.NumRows()
	if shardSize <= 0 {
		shardSize = partition.DefaultShardSize
	}
	nshards := (n + shardSize - 1) / shardSize
	if nshards <= 1 || pool == nil || pool.Workers() == 1 {
		return NegativeCoverCtx(ctx, r)
	}

	// Each item scans outer rows [s*shardSize, hi) into a fresh local set
	// written only to its own locals[s] slot, so re-running it is safe.
	// A cancelled scan leaves its set partial, and Run returns ctx.Err().
	locals := make([]*NonFDSet, nshards)
	err := pool.Run(ctx, nshards, func(_, s int) {
		locals[s] = NewNonFDSet(r.NumCols())
		lo := s * shardSize
		_ = coverRows(ctx, r, lo, min(lo+shardSize, n), locals[s])
	})
	if err != nil {
		return nil, err
	}

	out := NewNonFDSet(r.NumCols())
	rows := int64(0)
	err = pool.Run(ctx, 1, func(_, _ int) {
		for _, local := range locals {
			faults.Check(faults.SamplingShardMerge)
			for _, x := range local.Sets() {
				out.Add(x)
			}
			rows += int64(local.Len())
		}
	})
	if err != nil {
		return nil, err
	}
	pool.CountShards(int64(nshards), rows)
	return out, nil
}
