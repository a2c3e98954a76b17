// Package check verifies FDs against data and reports the violating tuple
// pairs — the enforcement side of discovery: once a steward decides an FD
// from the ranking is a real constraint, violations point at the rows to
// repair (like the duplicate voter id behind the paper's σ4).
package check

import (
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Violation is a pair of rows agreeing on an FD's LHS but differing on the
// given RHS attribute.
type Violation struct {
	Row1, Row2 int
	Attr       int
}

// FD returns up to limit violations of f on r (0 = all). An empty result
// means the FD holds.
func FD(r *relation.Relation, f dep.FD, limit int) []Violation {
	p := partitionOf(r, f.LHS)
	return violations(r, f, p, 0, p.Card(), limit)
}

// violations returns up to limit (0 = all) witness pairs against f from
// clusters [lo, hi) of p = π_LHS: within a cluster all rows agree on the
// LHS, so each row differing from the cluster's first row on an RHS
// attribute is one witness.
func violations(r *relation.Relation, f dep.FD, p *partition.Partition, lo, hi, limit int) []Violation {
	var out []Violation
	for i := lo; i < hi; i++ {
		cluster := p.Cluster(i)
		for a := f.RHS.Next(0); a >= 0; a = f.RHS.Next(a + 1) {
			first := cluster[0]
			for _, row := range cluster[1:] {
				if r.Cols[a][row] != r.Cols[a][first] {
					out = append(out, Violation{Row1: int(first), Row2: int(row), Attr: a})
					if limit > 0 && len(out) >= limit {
						return out
					}
				}
			}
		}
	}
	return out
}

// partitionOf materializes π_X serially and uncached for the ctx-less
// checkers.
func partitionOf(r *relation.Relation, x bitset.Set) *partition.Partition {
	//fdvet:ignore ctxflow ctx-less convenience checkers; VerifyCover is the primary API until=PR20
	p, _, err := partition.NewKernels(nil, 0, nil).ForAttrs(context.Background(), x, r.Cols, r.Cards)
	if err != nil {
		panic(err) // a one-worker build fails only on cancellation
	}
	return p
}

// Holds reports whether f holds on r.
func Holds(r *relation.Relation, f dep.FD) bool {
	return len(FD(r, f, 1)) == 0
}

// All validates every FD of a cover and returns the violated ones with one
// witness each. Useful after new data arrives: re-check yesterday's cover.
func All(r *relation.Relation, fds []dep.FD) map[int]Violation {
	out := map[int]Violation{}
	for i, f := range fds {
		if v := FD(r, f, 1); len(v) > 0 {
			out[i] = v[0]
		}
	}
	return out
}

// VerifyOptions tunes VerifyCover.
type VerifyOptions struct {
	// SampleRows bounds the rows verified per FD: relations larger than
	// this are verified on their first SampleRows rows (a violation in
	// the sample disproves the FD on the whole relation, so sampling
	// never drops a valid FD — it can only fail to catch a violation
	// hiding in the tail). 0 applies DefaultSampleRows; negative
	// verifies every row.
	SampleRows int
	// Cache optionally supplies LHS partitions already built by the
	// discovery run (and receives the ones verification builds). It is
	// ignored whenever verification runs on a row sample: the sample is
	// a different relation, so cached full-relation partitions would be
	// wrong there.
	Cache *partition.Cache
	// MaxViolations verifies the cover approximately: an FD passes while
	// its g3-style violation count — the rows to delete for it to hold
	// exactly — stays at or below this bound. Deleting rows never raises
	// the count, so on a row sample the measured count is a lower bound:
	// sampled verification can refute an approximate FD but never
	// wrongly confirm one beyond what full verification would. 0 keeps
	// exact verification.
	MaxViolations int
	// Workers is the width of the pool each FD's violation scan runs on:
	// the LHS partition materializes through partition.Kernels and its
	// clusters split into ~ShardSize-row ranges scanned as pool items,
	// with the per-shard verdicts (or capped g3 counts) reconciled into
	// the pass/fail decision. Clusters violate independently, so the
	// decision is the same at every width and shard size. <= 1 scans on
	// one worker.
	Workers int
	// ShardSize is the rows per verification shard; 0 selects
	// partition.DefaultShardSize.
	ShardSize int
}

// DefaultSampleRows is the row-sample bound the post-run verifier uses
// when VerifyOptions leaves SampleRows zero.
const DefaultSampleRows = 100_000

// VerifyReport is the outcome of a post-run cover verification.
type VerifyReport struct {
	// Checked is the number of FDs verified; Violated how many failed.
	Checked, Violated int
	// Sound holds the FDs that passed, in input order.
	Sound []dep.FD
	// Sampled reports that verification ran on a row sample rather than
	// the full relation.
	Sampled bool
}

// VerifyCover re-validates every FD of a cover directly against the
// relation and splits the sound ones from the violated ones — the
// soundness gate a cancelled, degraded, or errored discovery run passes
// its partial cover through before anyone acts on it. It shares no
// mutable state with the run that produced the cover: each FD is checked
// from a partition built fresh or taken read-only from opts.Cache (the
// partitions there are immutable, so a buggy run cannot have corrupted
// them — at worst the cache holds a partition for a set the run never
// built, which is still a correct partition of the data).
//
// On cancellation — or a worker failure in the sharded scan — the error
// returns alongside the partial report: Sound then holds only the FDs
// already verified, which remains a sound (if conservative) cover.
// Callers verifying after a cancelled run pass a non-cancellable
// context (context.WithoutCancel) so the gate still completes.
func VerifyCover(ctx context.Context, r *relation.Relation, fds []dep.FD, opts VerifyOptions) (VerifyReport, error) {
	rep := VerifyReport{Checked: len(fds)}
	if len(fds) == 0 {
		return rep, nil
	}
	limit := opts.SampleRows
	if limit == 0 {
		limit = DefaultSampleRows
	}
	target := r
	if limit > 0 && r.NumRows() > limit {
		target = r.Head(limit)
		rep.Sampled = true
	}
	cache := opts.Cache
	if rep.Sampled {
		// The sample is a different relation: full-relation partitions
		// must neither serve nor enter the cache here.
		cache = nil
	}
	pool := engine.NewPool(opts.Workers)
	kern := partition.NewKernels(pool, opts.ShardSize, cache)
	rep.Sound = make([]dep.FD, 0, len(fds))
	for _, f := range fds {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		p, _, err := kern.ForAttrs(ctx, f.LHS, target.Cols, target.Cards)
		if err != nil {
			return rep, err
		}
		cuts := partition.ShardClusters(p, opts.ShardSize)
		var sound bool
		if opts.MaxViolations > 0 {
			var total int
			total, err = g3Violations(ctx, pool, target, f, p, cuts, opts.MaxViolations)
			sound = total <= opts.MaxViolations
		} else {
			var violated bool
			violated, err = fdViolated(ctx, pool, target, f, p, cuts)
			sound = !violated
		}
		if err != nil {
			return rep, err
		}
		if sound {
			rep.Sound = append(rep.Sound, f)
		} else {
			rep.Violated++
		}
	}
	return rep, nil
}

// fdViolated decides exact violation existence per shard: the clusters
// of p = π_LHS, split at cuts, are scanned as pool items, and any
// shard's witness refutes the FD.
func fdViolated(ctx context.Context, pool *engine.Pool, r *relation.Relation, f dep.FD, p *partition.Partition, cuts []int) (bool, error) {
	violated := make([]bool, len(cuts)-1)
	err := pool.Run(ctx, len(violated), func(_, s int) {
		violated[s] = len(violations(r, f, p, cuts[s], cuts[s+1], 1)) > 0
	})
	return slices.Contains(violated, true), err
}

// g3Violations counts the g3 violations of f — the rows to delete so f
// holds exactly — summed over f's RHS attributes, per shard of p =
// π_LHS with per-shard limit caps. Clusters violate independently, so
// the reconciled sum decides "total > limit" exactly like a whole-
// partition count: when a shard early-exits it alone exceeds the limit
// (the true total can only be larger), and when none does every
// per-shard count is exact.
func g3Violations(ctx context.Context, pool *engine.Pool, r *relation.Relation, f dep.FD, p *partition.Partition, cuts []int, limit int) (int, error) {
	counts := make([]int, len(cuts)-1)
	counters := make([]*partition.G3Counter, pool.Workers())
	total := 0
	for a := f.RHS.Next(0); a >= 0 && len(counts) > 0; a = f.RHS.Next(a + 1) {
		col, card := r.Cols[a], r.Cards[a]
		err := pool.Run(ctx, len(counts), func(w, s int) {
			if counters[w] == nil {
				counters[w] = partition.NewG3Counter(card)
			}
			counts[s] = counters[w].ViolationsRange(p, cuts[s], cuts[s+1], col, card, limit)
		})
		if err != nil {
			return 0, err
		}
		for _, c := range counts {
			total += c
		}
		if total > limit {
			return total, nil
		}
	}
	return total, nil
}

// Keys verifies that an attribute set is unique on r, returning a
// duplicate row pair if not.
func Keys(r *relation.Relation, key bitset.Set) (int, int, bool) {
	if p := partitionOf(r, key); p.Card() > 0 {
		cluster := p.Cluster(0)
		return int(cluster[0]), int(cluster[1]), false
	}
	return 0, 0, true
}
