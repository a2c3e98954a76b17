package partition

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/faults"
)

// Kernels is the one surface of the partition kernels: single-attribute
// builds, refinement, TANE's PLI products, and the cached materialization
// of π_X, each alone or as a batch of jobs. It owns a worker pool, a shard
// size, an optional PLI cache, and one Refiner per worker that persists
// across calls, so warm kernels allocate only their outputs.
//
// Every method picks its execution strategy from what it can observe:
// on a one-worker pool, or when the input fits in one shard, it runs the
// serial kernel on the first worker's scratch; otherwise it shards the
// input row-wise across the pool and stitches the per-shard outputs.
// Both strategies produce byte-identical layouts at every
// (workers, shardSize). The batch methods fan whole jobs out over the
// pool instead, one serial kernel per job.
//
// A Kernels is driven by one goroutine at a time; parallelism comes from
// its pool. Concurrent callers each own a Kernels (a one-worker Kernels
// is cheap) and may share one Cache.
type Kernels struct {
	pool    *engine.Pool
	size    int
	cache   *Cache
	scratch []*Refiner // one per pool worker

	// ForAttrs scratch, used by the driving goroutine only.
	attrs  []int
	prefix bitset.Set
	key    []byte
	rows   int64 // rows of the partitions ForAttrs refinements produced
}

// NewKernels returns kernels running on pool with shardSize-row shards,
// materializing attribute sets through cache. A nil pool means one
// worker, shardSize <= 0 selects DefaultShardSize, and a nil cache
// disables caching.
func NewKernels(pool *engine.Pool, shardSize int, cache *Cache) *Kernels {
	if pool == nil {
		pool = engine.NewPool(1)
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	k := &Kernels{pool: pool, size: shardSize, cache: cache, scratch: make([]*Refiner, pool.Workers())}
	for w := range k.scratch {
		k.scratch[w] = &Refiner{}
	}
	return k
}

// cuts returns the shard cuts of p's clusters when the kernels should
// shard work over them, nil when the serial kernel should run: on a
// one-worker pool (checked before cutting) or a single-shard input.
func (k *Kernels) cuts(p *Partition) []int {
	if k.pool.Workers() == 1 {
		return nil
	}
	if cuts := ShardClusters(p, k.size); len(cuts) > 2 {
		return cuts
	}
	return nil
}

// single builds π_A for one column, sharded across the pool when the
// pool is wider than one worker and the column spans several shards.
// The result is byte-identical to Single.
func (k *Kernels) single(ctx context.Context, col []int32, card int) (*Partition, error) {
	if k.pool.Workers() == 1 || len(col) <= k.size {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return Single(col, card), nil
	}
	return newShardBuilder(k.pool.Workers(), len(col), k.size).build(ctx, k.pool, col, card)
}

// Singles computes the single-attribute partitions of every column
// through the cache: hits are charged to the budget as cache-resident
// bytes, misses are built, charged as materialized partitions and
// published to the cache. It is the shared PLI bootstrap of the
// partition-based drivers. Returns the partitions in column order plus
// the number built. On cancellation the partial results carry nil for
// unbuilt columns alongside the error.
//
// Columns spanning several shards build one at a time, each sharded
// across the pool; otherwise (one shard, or one worker) the pool fans
// out over the columns. Each built column costs one partition.build
// fault-site hit and each shard scatter one partition.shardmerge hit.
func (k *Kernels) Singles(ctx context.Context, cols [][]int32, cards []int, budget *Budget) ([]*Partition, int, error) {
	n := len(cols)
	parts := make([]*Partition, n)
	keys := make([]bitset.Set, n)
	missing := make([]int, 0, n)
	for c := 0; c < n; c++ {
		keys[c] = bitset.FromAttrs(n, c)
		if p := k.cache.Get(keys[c]); p != nil {
			parts[c] = p
			budget.ChargeBytes(Cost(p))
			continue
		}
		missing = append(missing, c)
	}
	built := make([]*Partition, len(missing))
	var err error
	if len(missing) > 0 {
		nrows := len(cols[missing[0]])
		if k.pool.Workers() == 1 || nrows <= k.size {
			err = k.pool.Run(ctx, len(missing), func(_, i int) {
				built[i] = Single(cols[missing[i]], cards[missing[i]])
			})
		} else {
			// Columns run sequentially so scratch stays bounded by one
			// column; within a column the shards group and scatter
			// concurrently.
			sb := newShardBuilder(k.pool.Workers(), nrows, k.size)
			for i, c := range missing {
				if built[i], err = sb.build(ctx, k.pool, cols[c], cards[c]); err != nil {
					break
				}
			}
		}
	}
	nbuilt := 0
	for j, c := range missing {
		p := built[j]
		if p == nil {
			continue
		}
		parts[c] = p
		budget.Charge(p)
		k.cache.Put(keys[c], p)
		nbuilt++
	}
	return parts, nbuilt, err
}

// Refine computes π_XA from π_X by splitting every cluster of p on
// column col. On cancellation or an injected fault the error returns
// with no partial partition.
func (k *Kernels) Refine(ctx context.Context, p *Partition, col []int32, card int) (*Partition, error) {
	if cuts := k.cuts(p); cuts != nil {
		return k.sharded(ctx, p, cuts, col, card)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return k.scratch[0].refine(p, col, card), nil
}

// ForAttrs computes π_X for an attribute set; cols and cards describe
// the full relation, and π_∅ is one cluster of all rows. The second
// result reports an exact cache hit. The returned partition may be
// shared through the cache: treat it as read-only.
//
// Without a cache, the walk starts from the smallest-error
// single-attribute partition and refines by the remaining attributes.
// With one, it walks the ascending-attribute prefix chain from the
// longest cached prefix (or from the first attribute's single
// partition), publishing every intermediate prefix so later supersets
// start further along. An exact hit counts one cache hit; otherwise
// finding a usable prefix counts one hit and finding none one miss.
//
//fd:hotpath
func (k *Kernels) ForAttrs(ctx context.Context, x bitset.Set, cols [][]int32, cards []int) (*Partition, bool, error) {
	c := k.cache
	if c != nil {
		k.key = x.AppendKey(k.key[:0])
		if p := c.lookup(k.key); p != nil {
			c.hits.Add(1)
			return p, true, ctx.Err()
		}
	}
	nrows := 0
	if len(cols) > 0 {
		nrows = len(cols[0])
	}
	k.attrs = x.AppendAttrs(k.attrs[:0])
	attrs := k.attrs
	if len(attrs) == 0 {
		return Full(nrows), false, ctx.Err()
	}
	if len(k.prefix) != len(x) {
		k.prefix = make(bitset.Set, len(x))
	}
	var p *Partition
	start := 0
	if c == nil {
		orderForRefine(attrs, cards, nrows)
	} else {
		// The exact key just missed, so only strict prefixes can help.
		p, start, k.key = c.longestPrefix(attrs[:len(attrs)-1], k.prefix, k.key)
	}
	var err error
	if p == nil {
		if p, err = k.single(ctx, cols[attrs[0]], cards[attrs[0]]); err != nil {
			return nil, false, err
		}
		start = 1
		k.prefix.Add(attrs[0])
		c.Put(k.prefix, p) // Put is a no-op on a nil cache
	}
	for _, a := range attrs[start:] {
		if p.Card() > 0 {
			if p, err = k.Refine(ctx, p, cols[a], cards[a]); err != nil {
				return nil, false, err
			}
			k.rows += int64(p.Size())
		}
		k.prefix.Add(a)
		c.Put(k.prefix, p)
	}
	return p, false, nil
}

// RowsRefined reports the total rows of the partitions ForAttrs
// refinement steps have produced over the Kernels' lifetime — the
// row work of building partitions the cache could not serve whole.
func (k *Kernels) RowsRefined() int64 { return k.rows }

// RefineJob refines Part by the listed columns in order. Cols[k] must be
// a full dictionary-encoded column with cardinality Cards[k].
type RefineJob struct {
	Part  *Partition
	Cols  [][]int32
	Cards []int
}

// RefineAll refines every job on the pool, each job serially on its
// worker's Refiner, and returns the refined partitions in job order. On
// cancellation the partial results are returned with ctx's error;
// unprocessed entries are nil. Items restart cleanly under the pool's
// retry policy: each attempt re-reads jobs[i].Part and only publishes
// out[i] at the end.
func (k *Kernels) RefineAll(ctx context.Context, jobs []RefineJob) ([]*Partition, error) {
	out := make([]*Partition, len(jobs))
	err := k.pool.Run(ctx, len(jobs), func(w, i int) {
		rf := k.scratch[w]
		p := jobs[i].Part
		for c, col := range jobs[i].Cols {
			if p.Card() == 0 {
				break
			}
			p = rf.refine(p, col, jobs[i].Cards[c])
		}
		out[i] = p
	})
	return out, err
}

// IntersectJob is one PLI product of TANE's prefix-block join: for
// parents π_PA and π_PB, π_PAB is π_PA refined by column B, and equally
// π_PB refined by column A. Part is the parent to refine — the one with
// the smaller ‖π‖ is cheaper — and Col (cardinality Card) the other
// parent's last attribute. The identity holds under both null semantics:
// under null ≠ null every null carries its own code.
type IntersectJob struct {
	Part *Partition
	Col  []int32
	Card int
}

// IntersectAll computes every job's product on the pool, each job
// serially on its worker's Refiner, and returns the results in job
// order, firing partition.intersect once per job. On cancellation the
// partial results are returned with ctx's error; unprocessed entries are
// nil. Re-running an item is safe: out[i] is written only as the item's
// last step.
func (k *Kernels) IntersectAll(ctx context.Context, jobs []IntersectJob) ([]*Partition, error) {
	out := make([]*Partition, len(jobs))
	err := k.pool.Run(ctx, len(jobs), func(w, i int) {
		faults.Check(faults.PartitionIntersect)
		j := jobs[i]
		out[i] = k.scratch[w].refine(j.Part, j.Col, j.Card)
	})
	return out, err
}
