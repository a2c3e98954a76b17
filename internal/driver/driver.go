// Package driver is the algorithm table: one row per discovery algorithm
// naming it, running it and declaring the search modes it supports. The
// root package's Discover and the experiment harness (internal/bench)
// both dispatch through it, and Discover derives its capability errors
// from its columns, so adding an algorithm is adding a row.
package driver

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/dfd"
	"repro/internal/engine"
	"repro/internal/fastfds"
	"repro/internal/fdep"
	"repro/internal/hyfd"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/tane"
)

// RunFunc runs one algorithm on r under env. ratio is DHyFD's
// efficiency–inefficiency threshold (0 = core.DefaultRatio); the other
// algorithms ignore it.
type RunFunc func(ctx context.Context, r *relation.Relation, env runstate.Env, ratio float64) ([]dep.FD, *engine.RunStats, error)

// Spec is one algorithm's row.
type Spec struct {
	// Name is the lower-case name Algorithm.String and RunStats print.
	Name string
	// Title is the name as the paper's tables print it.
	Title string
	// Run runs the algorithm.
	Run RunFunc
	// Lattice marks the algorithms whose search has a lattice to prune:
	// they fuse top-k into the search and validate against the g3 bound.
	// The row-based ones derive covers from exact difference sets, so
	// they reject a g3 bound and satisfy top-k by ranking and truncating.
	Lattice bool
	// Durable marks the algorithms with a resumable search frontier,
	// which support checkpoint and resume.
	Durable bool
}

// Table lists every algorithm in the order of the public Algorithm
// constants, which index it.
var Table = []Spec{
	{Name: "dhyfd", Title: "DHyFD", Lattice: true, Durable: true, Run: core.Run},
	{Name: "hyfd", Title: "HyFD", Lattice: true, Durable: true, Run: ignoreRatio(hyfd.Run)},
	{Name: "tane", Title: "TANE", Lattice: true, Durable: true, Run: ignoreRatio(tane.Run)},
	{Name: "fdep", Title: "FDEP", Run: fdepRun(fdep.Classic)},
	{Name: "fdep1", Title: "FDEP1", Run: fdepRun(fdep.NonRedundant)},
	{Name: "fdep2", Title: "FDEP2", Run: fdepRun(fdep.Sorted)},
	{Name: "fastfds", Title: "FastFDs", Durable: true, Run: ignoreRatio(fastfds.Run)},
	{Name: "dfd", Title: "DFD", Lattice: true, Durable: true, Run: ignoreRatio(dfd.Run)},
}

func ignoreRatio(run func(context.Context, *relation.Relation, runstate.Env) ([]dep.FD, *engine.RunStats, error)) RunFunc {
	return func(ctx context.Context, r *relation.Relation, env runstate.Env, _ float64) ([]dep.FD, *engine.RunStats, error) {
		return run(ctx, r, env)
	}
}

func fdepRun(v fdep.Variant) RunFunc {
	return func(ctx context.Context, r *relation.Relation, env runstate.Env, _ float64) ([]dep.FD, *engine.RunStats, error) {
		return fdep.Run(ctx, r, env, v)
	}
}

// Lookup returns the index of the row named name, matched
// case-insensitively against Name in table order.
func Lookup(name string) (int, bool) {
	for i, s := range Table {
		if strings.EqualFold(s.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// Supporting lists the Titles of the rows with the capability, as the
// suggestion a capability error ends with ("A, B, C or D"). Lattice
// algorithms come first, each group in table order.
func Supporting(capable func(Spec) bool) string {
	var titles []string
	for _, lattice := range []bool{true, false} {
		for _, s := range Table {
			if s.Lattice == lattice && capable(s) {
				titles = append(titles, s.Title)
			}
		}
	}
	if len(titles) < 2 {
		return strings.Join(titles, "")
	}
	return strings.Join(titles[:len(titles)-1], ", ") + " or " + titles[len(titles)-1]
}
