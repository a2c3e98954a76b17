// Package partition implements stripped partitions, the workhorse data
// structure of column-based FD discovery.
//
// The stripped partition π_X of a relation r groups the rows of r into
// X-equivalence classes and drops the singleton classes. Two measures
// matter: |π| (number of clusters) and ‖π‖ (total rows inside clusters).
// An FD X → A holds iff refining π_X by A splits no cluster, which is
// equivalent to the TANE error test e(X) = e(XA) with e(X) = ‖π_X‖ − |π_X|.
//
// The package provides the three partition computations the paper's
// algorithms need:
//
//   - Single: build π_A for one attribute from dictionary codes,
//   - refinement π_X ⇒ π_XA one cluster at a time (Algorithm 5), used by
//     the DDM and by FD validation (Refiner.RefineClusterInto),
//   - the product π_PA ∩ π_PB ⇒ π_PAB of TANE's level-wise prefix-block
//     joins, computed as a one-column refinement of the smaller parent:
//     π_PAB is π_PA refined by column B, and also π_PB refined by A.
//
// Kernels (kernels.go) is the one surface the drivers call them through:
// it owns per-worker scratch and a worker pool, runs a kernel serially or
// sharded across the pool, fans batches of jobs out over the pool, and
// walks the PLI Cache (cache.go) to materialize π_X for an attribute set.
//
// Every partition is headerless: all cluster rows live in one backing
// array with one offset per cluster end, so a partition costs three
// allocations regardless of its cluster count. The refinement kernel keeps
// flat sets-array-plus-touched-list scratch and an output buffer across
// calls, so a warm kernel allocates only its exact-size output.
package partition

import (
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/faults"
)

// Partition is a stripped partition: clusters of row indexes, each of size
// at least two. The zero value is the empty partition.
//
// A partition is headerless: all cluster rows live in one backing array,
// cluster by cluster, and offsets marks where each cluster ends. It holds
// no per-cluster slice headers, so it costs three allocations whatever its
// cluster count and carries only two pointers for the GC to scan. Callers
// walk it with Card and Cluster, and cut it into index ranges.
type Partition struct {
	// NRows is the number of rows of the underlying relation.
	NRows int

	// backing holds every cluster row. Cluster i is
	// backing[offsets[i]:offsets[i+1]]: offsets has one more entry than
	// there are clusters, offsets[0] == 0 and the last entry is
	// len(backing). Both are nil in the zero value.
	backing []int32
	offsets []int32
}

// newPartition wraps a backing array and its cluster-end offsets.
func newPartition(nrows int, backing, offsets []int32) *Partition {
	return &Partition{NRows: nrows, backing: backing, offsets: offsets}
}

// Card returns |π|, the number of clusters.
func (p *Partition) Card() int {
	if len(p.offsets) == 0 {
		return 0
	}
	return len(p.offsets) - 1
}

// Cluster returns the rows of cluster i, 0 <= i < Card(), as a view into
// the partition's backing: it allocates nothing, and its capacity ends
// with the cluster, so appending to it cannot clobber the next one.
// Treat it as read-only.
func (p *Partition) Cluster(i int) []int32 {
	lo, hi := p.offsets[i], p.offsets[i+1]
	return p.backing[lo:hi:hi]
}

// Size returns ‖π‖, the total number of rows inside clusters.
func (p *Partition) Size() int { return len(p.backing) }

// Error returns e(π) = ‖π‖ − |π|, the minimum number of rows to remove so
// that the partitioning attributes form a key.
func (p *Partition) Error() int { return p.Size() - p.Card() }

// IsUnique reports whether the partition has no cluster, i.e. the
// partitioning attribute set is a key (all classes are singletons).
func (p *Partition) IsUnique() bool { return p.Card() == 0 }

// Identical reports whether p and o have the same row count and the same
// layout: the same clusters in the same order, rows in the same order.
// The kernels' byte-identity checks compare with it.
func (p *Partition) Identical(o *Partition) bool {
	return p.NRows == o.NRows && p.Card() == o.Card() &&
		slices.Equal(p.backing, o.backing) && (p.Card() == 0 || slices.Equal(p.offsets, o.offsets))
}

// Clone returns a deep copy.
func (p *Partition) Clone() *Partition {
	return newPartition(p.NRows, exact(p.backing), exact(p.offsets))
}

// Single builds the stripped partition of one dictionary-encoded column.
// card must be at least 1 + max(col); rows with unique codes are stripped.
//
//fd:hotpath
func Single(col []int32, card int) *Partition {
	faults.Check(faults.PartitionBuild)
	if card < 1 {
		card = 1
	}
	counts := make([]int32, card)
	for _, v := range col {
		counts[v]++
	}
	// Lay all non-singleton clusters out in one backing array.
	starts := make([]int32, card)
	total := int32(0)
	nclusters := 0
	for v, n := range counts {
		if n >= 2 {
			starts[v] = total
			total += n
			nclusters++
		} else {
			starts[v] = -1
		}
	}
	backing := make([]int32, total)
	fill := make([]int32, card)
	for row, v := range col {
		if off := starts[v]; off >= 0 {
			backing[off+fill[v]] = int32(row)
			fill[v]++
		}
	}
	offsets := make([]int32, 1, nclusters+1)
	for v := 0; v < card; v++ {
		if off := starts[v]; off >= 0 {
			offsets = append(offsets, off+counts[v])
		}
	}
	return newPartition(len(col), backing, offsets)
}

// Refiner refines partitions one cluster at a time (Algorithm 5 of the
// paper). It keeps the sets-array and touched-id list between calls so that
// refining many clusters allocates nothing after warm-up.
type Refiner struct {
	buckets [][]int32 // indexed by dictionary code
	touched []int32   // codes used by the current cluster
	backing []int32   // refine's output rows, copied out exact-size
	offsets []int32   // refine's output offsets, copied out exact-size
	// The pad keeps two workers' Refiners, allocated side by side, off
	// one cache line: the headers above are rewritten per cluster, and
	// that false sharing cost about a third of two-worker DDM refreshes.
	_ [64]byte
}

// NewRefiner returns a refiner able to handle columns with cardinality up
// to maxCard.
func NewRefiner(maxCard int) *Refiner {
	return &Refiner{buckets: make([][]int32, maxCard)}
}

func (rf *Refiner) grow(card int) {
	if card > len(rf.buckets) {
		nb := make([][]int32, card)
		copy(nb, rf.buckets)
		rf.buckets = nb
	}
}

// RefineClusterInto splits one cluster by the codes of column col:
// surviving sub-cluster rows (size >= 2) are appended to arena and dst
// receives views into it, so a warm caller pays zero allocations per
// cluster. If arena grows mid-call, views appended earlier keep pointing
// into the previous backing — their contents are complete and never
// mutated, so they stay valid. Returns the (possibly grown) arena and dst.
//
//fd:hotpath
func (rf *Refiner) RefineClusterInto(cluster []int32, col []int32, card int, arena []int32, dst [][]int32) ([]int32, [][]int32) {
	rf.grow(card)
	for _, row := range cluster {
		v := col[row]
		if len(rf.buckets[v]) == 0 {
			rf.touched = append(rf.touched, v)
		}
		rf.buckets[v] = append(rf.buckets[v], row)
	}
	for _, v := range rf.touched {
		if b := rf.buckets[v]; len(b) >= 2 {
			at := len(arena)
			arena = append(arena, b...)
			dst = append(dst, arena[at:len(arena):len(arena)])
		}
		rf.buckets[v] = rf.buckets[v][:0]
	}
	rf.touched = rf.touched[:0]
	return arena, dst
}

// refine computes π_XA from π_X by splitting every cluster on column col.
// It is the one product kernel: Kernels.Refine, RefineAll and IntersectAll
// all run it. The output is laid into the Refiner's scratch and copied out
// at exact size, so a warm refine allocates its partition, backing and
// offsets and nothing else, and the result holds no spare capacity.
//
//fd:hotpath
func (rf *Refiner) refine(p *Partition, col []int32, card int) *Partition {
	rf.grow(card)
	if cap(rf.backing) < p.Size() {
		rf.backing = make([]int32, 0, p.Size())
	}
	rf.backing, rf.offsets = rf.refineRange(p, 0, p.Card(), col, rf.backing[:0], append(rf.offsets[:0], 0))
	return newPartition(p.NRows, exact(rf.backing), exact(rf.offsets))
}

// exact returns a copy of s with no spare capacity.
func exact(s []int32) []int32 {
	out := make([]int32, len(s))
	copy(out, s)
	return out
}

// refineRange is refine's cluster-range kernel: it splits clusters
// [lo, hi) of p by the codes of col, appending surviving sub-cluster rows
// to backing and each sub-cluster's end position to ends, and returns the
// grown slices. Serial refine runs it over all clusters with a leading 0
// already in ends; the sharded kernel runs it per contiguous cluster
// range with empty local slices, so concatenating the per-range outputs
// in range order reproduces the serial layout bit for bit. The caller
// owns the card-sized scratch (rf.grow).
//
// Most clusters deep in a lattice are pairs, and a pair survives iff
// both rows share a code: that test emits exactly the rows, in exactly
// the order, the bucket pass would.
//
//fd:hotpath
//fd:shardkernel
func (rf *Refiner) refineRange(p *Partition, lo, hi int, col []int32, backing, ends []int32) ([]int32, []int32) {
	for i := lo; i < hi; i++ {
		cluster := p.backing[p.offsets[i]:p.offsets[i+1]]
		if len(cluster) == 2 {
			if r0, r1 := cluster[0], cluster[1]; col[r0] == col[r1] {
				backing = append(backing, r0, r1)
				ends = append(ends, int32(len(backing)))
			}
			continue
		}
		for _, row := range cluster {
			v := col[row]
			if len(rf.buckets[v]) == 0 {
				rf.touched = append(rf.touched, v)
			}
			rf.buckets[v] = append(rf.buckets[v], row)
		}
		for _, v := range rf.touched {
			if len(rf.buckets[v]) >= 2 {
				backing = append(backing, rf.buckets[v]...)
				ends = append(ends, int32(len(backing)))
			}
			rf.buckets[v] = rf.buckets[v][:0]
		}
		rf.touched = rf.touched[:0]
	}
	return backing, ends
}

// Members marks every row lying inside a cluster of p into dst, a row
// bitmap, and returns it (cleared and grown as needed, so one scratch
// bitmap serves many partitions). The result is the characteristic
// function of ‖π‖: ranking counts null occurrences per attribute with one
// word-And/popcount against it, and marks redundant occurrences with one
// word-Or of it — per partition, not per row.
//
//fd:hotpath
func (p *Partition) Members(dst bitset.Bitmap) bitset.Bitmap {
	words := bitset.WordsFor(p.NRows)
	if cap(dst) < words {
		dst = make(bitset.Bitmap, words)
	} else {
		dst = dst[:words]
		dst.Clear()
	}
	for _, row := range p.backing {
		dst.Set(int(row))
	}
	return dst
}

// orderForRefine sorts attrs so that the attribute whose single-column
// partition has the smallest error e(π_A) comes first. With exact
// active-domain cardinalities (relation.Relation guarantees them),
// e(π_A) = ‖π_A‖ − |π_A| = nrows − card(A): every one of the card(A)
// value classes loses exactly one representative. Smallest error means
// the cheapest refinement start — the fewest rows survive inside
// clusters. Ties break on the attribute index, keeping the order
// deterministic.
func orderForRefine(attrs []int, cards []int, nrows int) {
	sort.Slice(attrs, func(i, j int) bool {
		ei, ej := nrows-cards[attrs[i]], nrows-cards[attrs[j]]
		if ei != ej {
			return ei < ej
		}
		return attrs[i] < attrs[j]
	})
}

// Full returns π_∅: one cluster of all rows (empty under 2 rows).
func Full(nrows int) *Partition {
	if nrows < 2 {
		return &Partition{NRows: nrows}
	}
	all := make([]int32, nrows)
	for i := range all {
		all[i] = int32(i)
	}
	return newPartition(nrows, all, []int32{0, int32(nrows)})
}

// SortClusters orders clusters by ascending first row, and rows within each
// cluster ascending. Useful for deterministic comparisons in tests. It lays
// the sorted clusters into a fresh backing, so sorting never mutates a
// partition aliased elsewhere (a cache, a spill mapping).
func (p *Partition) SortClusters() {
	clusters := make([][]int32, p.Card())
	for i := range clusters {
		c := slices.Clone(p.Cluster(i))
		slices.Sort(c)
		clusters[i] = c
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	backing := make([]int32, 0, p.Size())
	offsets := make([]int32, 1, len(clusters)+1)
	for _, c := range clusters {
		backing = append(backing, c...)
		offsets = append(offsets, int32(len(backing)))
	}
	p.backing, p.offsets = backing, offsets
}

// Equal reports whether two partitions contain the same clusters,
// disregarding order. Both partitions are sorted as a side effect.
func (p *Partition) Equal(o *Partition) bool {
	if p.NRows != o.NRows || p.Card() != o.Card() || p.Size() != o.Size() {
		return false
	}
	p.SortClusters()
	o.SortClusters()
	return p.Identical(o)
}
