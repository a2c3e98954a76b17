package partition

import (
	"context"

	"repro/internal/engine"
	"repro/internal/faults"
)

// This file extends the 3-phase shard-merge scheme of the sharded
// single-attribute builder (shard.go) to refinement: Kernels.Refine, on a
// pool wider than one worker, splits the parent partition's clusters
// row-wise into ~shardSize-row contiguous cluster ranges, refines each
// range on a pool worker with that worker's Refiner, then stitches the
// per-range outputs into one backing by prefix offset. Because the
// serial kernel processes clusters independently and appends its output
// in cluster order, concatenating the per-range outputs in range order
// reproduces the serial layout — backing and offsets — bit for bit, at
// every shard size.

// ShardClusters splits p's clusters into contiguous index ranges holding
// at least size rows each (the last range may be smaller; a single
// oversized cluster forms its own range; size <= 0 selects
// DefaultShardSize). Returns the range boundaries as cluster indexes:
// range s is clusters [cuts[s], cuts[s+1]). The sharded kernels,
// sampling and verification passes all cut their per-shard work with it,
// so every per-shard consumer of a partition agrees on the same
// row-balanced decomposition.
func ShardClusters(p *Partition, size int) []int {
	if size <= 0 {
		size = DefaultShardSize
	}
	n := p.Card()
	cuts := make([]int, 1, n/2+2)
	last := int32(0) // offset where the open range starts
	for i := 1; i <= n; i++ {
		if int(p.offsets[i]-last) >= size {
			cuts = append(cuts, i)
			last = p.offsets[i]
		}
	}
	if cuts[len(cuts)-1] != n {
		cuts = append(cuts, n)
	}
	return cuts
}

// stitchShard lays one shard's local output into the shared backing
// and offsets: the local backing lands at its prefix base, and each local
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

// sharded refines p by column col over its clusters, already cut into
// ~shardSize-row ranges: each range refines concurrently on the pool with
// per-worker scratch, then the per-range outputs stitch by prefix offset
// into one backing, byte-identical to the serial kernel. Each shard's
// stitch costs one partition.refineshard fault-site hit. On cancellation
// or an injected fault the error returns with no partial partition.
func (k *Kernels) sharded(ctx context.Context, p *Partition, cuts []int, col []int32, card int) (*Partition, error) {
	// Phase 1: refine each cluster range into local backing/ends pairs.
	// Re-running an item is safe: the kernel rebuilds the range's output
	// from the immutable parent and leaves its worker scratch cleared.
	nshards := len(cuts) - 1
	backs := make([][]int32, nshards)
	endss := make([][]int32, nshards)
	err := k.pool.Run(ctx, nshards, func(w, s int) {
		lo, hi := cuts[s], cuts[s+1]
		rf := k.scratch[w]
		rf.grow(card)
		backing := make([]int32, 0, p.offsets[hi]-p.offsets[lo])
		ends := make([]int32, 0, (hi-lo)*2)
		backs[s], endss[s] = rf.refineRange(p, lo, hi, col, backing, ends)
	})
	if err != nil {
		return nil, err
	}
	return stitchSharded(ctx, k.pool, p.NRows, backs, endss)
}

// stitchSharded runs phases 2 and 3 of the sharded refinement: a
// sequential prefix pass assigning every shard its backing base and
// offsets window, then a parallel stitch of the local outputs into the
// shared backing and offsets.
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
	return newPartition(nrows, backing, offsets), nil
}
