package partition

import (
	"context"

	"repro/internal/engine"
	"repro/internal/faults"
)

// This file extends the 3-phase shard-merge scheme of the sharded
// single-attribute builder (shard.go) to the multi-attribute kernels:
// Kernels.Refine and Kernels.Intersect, on a pool wider than one
// worker, split the parent partition's clusters row-wise into
// ~shardSize-row contiguous cluster ranges, run the counting/probe
// phase per range on pool workers with per-worker scratch, then stitch
// the per-range outputs into one compact backing by prefix offset.
// Because both serial kernels process clusters independently and append
// their output in cluster order, concatenating the per-range outputs in
// range order reproduces the serial layout — backing and offsets — bit
// for bit, at every shard size.

// ShardClusters splits clusters into contiguous ranges holding at least
// size rows each (the last range may be smaller; a single oversized
// cluster forms its own range; size <= 0 selects DefaultShardSize).
// Returns the range boundaries as cluster indexes: range s is
// clusters[cuts[s]:cuts[s+1]]. The sharded kernels, sampling and
// verification passes all cut their per-shard work with it, so every
// per-shard consumer of a partition agrees on the same row-balanced
// decomposition.
func ShardClusters(clusters [][]int32, size int) []int {
	if size <= 0 {
		size = DefaultShardSize
	}
	cuts := make([]int, 1, len(clusters)/2+2)
	rows := 0
	for i, cl := range clusters {
		rows += len(cl)
		if rows >= size {
			cuts = append(cuts, i+1)
			rows = 0
		}
	}
	if cuts[len(cuts)-1] != len(clusters) {
		cuts = append(cuts, len(clusters))
	}
	return cuts
}

// rangeRows sums the rows of clusters[lo:hi], the capacity one shard's
// local backing needs.
func rangeRows(clusters [][]int32, lo, hi int) int {
	rows := 0
	for _, cl := range clusters[lo:hi] {
		rows += len(cl)
	}
	return rows
}

// stitchShard lays one shard's local output into the shared compact
// arrays: the local backing lands at its prefix base, and each local
// cluster-end offset lands base-adjusted in the shard's reserved
// offsets window. Writes are deterministic positions of deterministic
// values, so a retried shard rewrites identical bytes.
//
//fd:hotpath
//fd:shardkernel
func stitchShard(back, ends []int32, base int32, backing, offsets []int32) {
	copy(backing[base:int(base)+len(back)], back)
	for i, e := range ends {
		offsets[i] = base + e
	}
}

// shardRange is a serial kernel's cluster-range form (refineRange,
// intersectRange) bound to its column or probe table: it processes
// clusters with one worker's scratch, appending to the local backing
// and ends it is handed.
type shardRange func(s *kernelScratch, clusters [][]int32, backing, ends []int32) ([]int32, []int32)

// sharded runs one multi-attribute kernel over p's clusters, already cut
// into ~shardSize-row ranges: each range runs the kernel concurrently on
// the pool with per-worker scratch, then the per-range outputs stitch by
// prefix offset into one backing, byte-identical to the serial kernel.
// Each shard's stitch costs one partition.refineshard fault-site hit. On
// cancellation or an injected fault the error returns with no partial
// partition.
func (k *Kernels) sharded(ctx context.Context, p *Partition, cuts []int, run shardRange) (*Partition, error) {
	// Phase 1: run the kernel over each cluster range into local
	// backing/ends pairs. Re-running an item is safe: the kernel rebuilds
	// the range's output from the immutable parent and leaves its worker
	// scratch cleared.
	nshards := len(cuts) - 1
	backs := make([][]int32, nshards)
	endss := make([][]int32, nshards)
	err := k.pool.Run(ctx, nshards, func(w, s int) {
		lo, hi := cuts[s], cuts[s+1]
		backing := make([]int32, 0, rangeRows(p.Clusters, lo, hi))
		ends := make([]int32, 0, (hi-lo)*2)
		backs[s], endss[s] = run(&k.scratch[w], p.Clusters[lo:hi], backing, ends)
	})
	if err != nil {
		return nil, err
	}
	return stitchSharded(ctx, k.pool, p.NRows, backs, endss)
}

// stitchSharded runs phases 2 and 3 shared by the sharded
// multi-attribute kernels: a sequential prefix pass assigning every
// shard its backing base and offsets window, then a parallel stitch of
// the local outputs into the shared compact arrays.
func stitchSharded(ctx context.Context, pool *engine.Pool, nrows int, backs, endss [][]int32) (*Partition, error) {
	nshards := len(backs)
	// Phase 2: prefix offsets in shard order — rows of shard s precede
	// rows of shard s+1, exactly the serial append order.
	bases := make([]int32, nshards+1)
	obase := make([]int, nshards+1)
	for s := 0; s < nshards; s++ {
		bases[s+1] = bases[s] + int32(len(backs[s]))
		obase[s+1] = obase[s] + len(endss[s])
	}
	backing := make([]int32, bases[nshards])
	offsets := make([]int32, obase[nshards]+1) // offsets[0] = 0

	// Phase 3: scatter every shard's local output into its disjoint
	// ranges of the shared arrays.
	err := pool.Run(ctx, nshards, func(_, s int) {
		faults.Check(faults.PartitionRefineShard)
		stitchShard(backs[s], endss[s], bases[s], backing, offsets[obase[s]+1:obase[s+1]+1])
	})
	if err != nil {
		return nil, err
	}
	pool.CountShards(int64(nshards), int64(len(backing)))
	out := &Partition{NRows: nrows}
	out.setCompact(backing, offsets)
	return out, nil
}
