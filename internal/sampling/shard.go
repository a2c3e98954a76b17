package sampling

import (
	"context"

	"repro/internal/bitset"
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
	if distance < 1 {
		distance = 1
	}

	// Phase 1: sample each cluster range into a shard-local set.
	// Re-running an item is safe: the kernel rebuilds the shard's local
	// set from the immutable partition and relation.
	locals := make([]*NonFDSet, nshards)
	comps := make([]int, nshards)
	err = pool.Run(ctx, nshards, func(_, s int) {
		sampleShard(r, p, cuts, distance, s, locals, comps)
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

	locals := make([]*NonFDSet, nshards)
	err := pool.Run(ctx, nshards, func(_, s int) {
		coverShard(r, shardSize, s, locals)
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

// sampleShard is the phase-1 kernel of ClusterNeighborSampleSharded:
// shard s's cluster range samples into a fresh shard-local set, and the
// only writes that leave the kernel land in its disjoint locals[s] /
// comps[s] slots — which is what makes re-running the item after a
// transient failure safe.
//
//fd:shardkernel
func sampleShard(r *relation.Relation, p *partition.Partition, cuts []int, distance, s int, locals []*NonFDSet, comps []int) {
	local := NewNonFDSet(r.NumCols())
	buf := bitset.New(r.NumCols())
	n := 0
	for i := cuts[s]; i < cuts[s+1]; i++ {
		cluster := p.Cluster(i)
		if len(cluster) <= distance {
			continue
		}
		sorted := sortedCluster(r, cluster)
		for i := 0; i+distance < len(sorted); i++ {
			n++
			a, b := int(sorted[i]), int(sorted[i+distance])
			local.Add(AgreeSet(r, a, b, buf))
		}
	}
	locals[s], comps[s] = local, n
}

// coverShard is the phase-1 kernel of NegativeCoverSharded: outer rows
// [s*shardSize, hi) scan against all later rows into a fresh local set,
// written only to the shard's disjoint locals[s] slot.
//
//fd:shardkernel
func coverShard(r *relation.Relation, shardSize, s int, locals []*NonFDSet) {
	local := NewNonFDSet(r.NumCols())
	buf := bitset.New(r.NumCols())
	n := r.NumRows()
	lo := s * shardSize
	hi := min(lo+shardSize, n)
	for i := lo; i < hi; i++ {
		for j := i + 1; j < n; j++ {
			local.Add(AgreeSet(r, i, j, buf))
		}
	}
	locals[s] = local
}
