// Package fdep implements the row-based FDEP algorithm of Flach and Savnik
// and the paper's two improved variants.
//
// FDEP computes the full negative cover — the agree sets of all tuple
// pairs — and inducts the positive cover from it: starting from ∅ → R,
// every agree set X contributes the non-FD X ↛ R−X, specializing the FD
// set until it is exactly the set of minimal valid FDs.
//
// The three variants differ in induction machinery (Section V-B):
//
//   - Classic: per-attribute induction on a classic FD-tree, as published.
//   - NonRedundant (FDEP1): a non-redundant cover of non-FDs (maximal
//     agree sets only) drives synergized induction on an extended FD-tree.
//   - Sorted (FDEP2): all non-FDs sorted descending by size drive
//     synergized induction on an extended FD-tree. The paper's evaluation
//     shows this variant dominating, and refers to it as FDEP after V-B.
package fdep

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/fdtree"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
)

// Variant selects the induction strategy.
type Variant int

const (
	// Classic is the original FDEP: classic FD-tree, one RHS attribute at
	// a time.
	Classic Variant = iota
	// NonRedundant is FDEP1: maximal agree sets + synergized induction.
	NonRedundant
	// Sorted is FDEP2: descending-sorted agree sets + synergized induction.
	Sorted
)

func (v Variant) String() string {
	switch v {
	case Classic:
		return "FDEP"
	case NonRedundant:
		return "FDEP1"
	case Sorted:
		return "FDEP2"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Run discovers the left-reduced cover (singleton RHSs) of the FDs holding
// on r with the given FDEP variant under env. Only the negative-cover pass
// reads env: above one env.Workers it runs as the sharded pair scan on the
// pool (env.ShardSize rows per shard), whose merged agree-set order is
// identical to the serial scan, so every variant's induction sees the
// same input. Induction is inherently sequential. Both the quadratic
// pass and the induction loop honour ctx; on cancellation the partial
// report (Cancelled set) is returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, env runstate.Env, variant Variant) ([]dep.FD, *engine.RunStats, error) {
	h := env.Start(strings.ToLower(variant.String()))
	return h.Run(func() ([]dep.FD, error) { return discover(ctx, r, h, variant) })
}

func discover(ctx context.Context, r *relation.Relation, h *runstate.Harness, variant Variant) ([]dep.FD, error) {
	rs := h.RS
	n := r.NumCols()
	nrows := int64(r.NumRows())
	stop := rs.Phase("negative-cover")
	neg, err := sampling.NegativeCoverSharded(ctx, h.Pool, r, h.ShardSize)
	stop()
	if err != nil {
		return nil, err
	}
	rs.RowsScanned += nrows * (nrows - 1) // every tuple pair reads two rows
	rs.NonFDs = int64(neg.Len())

	stop = rs.Phase("induct")
	defer stop()
	switch variant {
	case Classic:
		neg.SortDescending()
		tree := fdtree.NewClassicWithFullRHS(n)
		for i, x := range neg.Sets() {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for a := 0; a < n; a++ {
				if !x.Contains(a) {
					tree.SpecializeClassic(x, a)
				}
			}
		}
		return sorted(tree.FDs()), nil
	case NonRedundant:
		neg.NonRedundant()
	case Sorted:
		neg.SortDescending()
	default:
		return nil, fmt.Errorf("fdep: unknown variant %v", variant)
	}

	tree := fdtree.NewWithFullRHS(n)
	full := bitset.Full(n)
	for i, x := range neg.Sets() {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tree.Induct(x, full.Difference(x))
	}
	return sorted(tree.FDs()), nil
}

// sorted splits a cover into singleton RHSs in canonical order.
func sorted(fds []dep.FD) []dep.FD {
	fds = dep.SplitRHS(fds)
	dep.Sort(fds)
	return fds
}
