// Package integration cross-checks the complete pipeline: every discovery
// algorithm against every benchmark shape, covers against implication
// equivalence, and rankings against dataset totals.
package integration

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/engine"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/runstate"
)

// run runs the named algorithm of the algorithm table under env.
func run(ctx context.Context, name string, r *relation.Relation, env runstate.Env) ([]dep.FD, *engine.RunStats, error) {
	i, ok := driver.Lookup(name)
	if !ok {
		panic("unknown algorithm " + name)
	}
	return driver.Table[i].Run(ctx, r, env, 0)
}

// coverOf runs the named algorithm with default settings, failing the
// test on an error.
func coverOf(t *testing.T, name string, r *relation.Relation) []dep.FD {
	t.Helper()
	fds, _, err := run(context.Background(), name, r, runstate.Env{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fds
}

// discoverAll runs every algorithm and fails the test if any pair
// disagrees. Returns the agreed left-reduced cover.
func discoverAll(t *testing.T, name string, r *relation.Relation) []dep.FD {
	t.Helper()
	base := coverOf(t, "dhyfd", r)
	for _, algo := range []string{"hyfd", "tane", "fdep", "fdep1", "fdep2", "fastfds", "dfd"} {
		fds := coverOf(t, algo, r)
		if !dep.Equal(base, fds) {
			only, other := dep.Diff(base, fds, r.Names)
			t.Fatalf("%s: dhyfd vs %s disagree.\nonly dhyfd: %v\nonly %s: %v",
				name, algo, only, algo, other)
		}
	}
	return base
}

// TestAllAlgorithmsOnAllShapes runs every algorithm on a small fragment of
// every benchmark shape — the broadest agreement check in the suite.
func TestAllAlgorithmsOnAllShapes(t *testing.T) {
	for _, b := range dataset.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cols := b.DefaultCols
			if cols > 12 {
				cols = 12
			}
			r := b.Generate(120, cols)
			fds := discoverAll(t, b.Name, r)
			// And against the exponential oracle where feasible.
			if r.NumCols() <= 12 {
				want := brute.MinimalFDs(r)
				if !dep.Equal(fds, want) {
					only, other := dep.Diff(fds, want, r.Names)
					t.Fatalf("vs brute force: only algos %v, only brute %v", only, other)
				}
			}
		})
	}
}

// TestNullSemanticsAgreement repeats the agreement check under null ≠ null
// on the incomplete shapes.
func TestNullSemanticsAgreement(t *testing.T) {
	for _, b := range dataset.All() {
		if !b.Incomplete {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cols := b.DefaultCols
			if cols > 10 {
				cols = 10
			}
			r := b.GenerateSemantics(100, cols, relation.NullNeqNull)
			fds := discoverAll(t, b.Name, r)
			if r.NumCols() <= 12 {
				want := brute.MinimalFDs(r)
				if !dep.Equal(fds, want) {
					t.Fatal("vs brute force under null≠null")
				}
			}
		})
	}
}

// TestPipelineEndToEnd exercises discover → canonicalize → rank → totals
// and their mutual invariants on moderately sized shapes.
func TestPipelineEndToEnd(t *testing.T) {
	for _, name := range []string{"ncvoter", "bridges", "echo", "breast"} {
		b, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r := b.GenerateDefault()
		n := r.NumCols()

		lr := coverOf(t, "dhyfd", r)
		can := cover.Canonical(n, lr)

		if !cover.Equivalent(n, lr, can) {
			t.Errorf("%s: canonical cover not equivalent", name)
		}
		if !cover.UniqueLHS(can) {
			t.Errorf("%s: canonical cover has duplicate LHSs", name)
		}
		if dep.Count(can) > dep.Count(lr) {
			t.Errorf("%s: canonical bigger than left-reduced", name)
		}

		ranked := ranking.Rank(r, can)
		if len(ranked) != len(can) {
			t.Fatalf("%s: ranked %d of %d", name, len(ranked), len(can))
		}
		for _, rk := range ranked {
			c := rk.Counts
			if c.NoNulls > c.NoNullRHS || c.NoNullRHS > c.WithNulls {
				t.Errorf("%s: count ordering violated: %+v", name, c)
			}
			if c.WithNulls > r.NumRows()*rk.FD.RHS.Count() {
				t.Errorf("%s: count exceeds occurrences: %+v", name, c)
			}
		}

		tot := ranking.Totals(r, can)
		if tot.RedWithNulls > tot.Values || tot.Red > tot.RedWithNulls {
			t.Errorf("%s: implausible totals %+v", name, tot)
		}
		// Totals are cover-invariant.
		if tot2 := ranking.Totals(r, lr); tot2 != tot {
			t.Errorf("%s: totals differ between covers: %+v vs %+v", name, tot, tot2)
		}
	}
}

// TestFragmentMonotonicity: a row fragment of a relation satisfies at least
// the FDs of the full relation... which is false in general for *minimal*
// covers, but the implied-FD sets must be monotone: every FD valid on the
// full data is valid on the fragment.
func TestFragmentMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	b, _ := dataset.ByName("ncvoter")
	full := b.Generate(400, 10)
	frag := full.Head(150)
	fullCover := coverOf(t, "dhyfd", full)
	fragCover := coverOf(t, "dhyfd", frag)
	nf := full.NumCols()
	e := cover.NewEngine(nf, fragCover)
	for _, f := range fullCover {
		if !e.Implies(f.LHS, f.RHS, -1) {
			t.Errorf("FD %s valid on full data but not on fragment", f.Format(full.Names))
		}
	}
	_ = rng
}
