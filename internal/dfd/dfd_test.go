package dfd

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/relation"
	"repro/internal/runstate"
)

// discoverFDs runs DFD with default settings, failing the test on an
// error.
func discoverFDs(t testing.TB, r *relation.Relation) []dep.FD {
	t.Helper()
	fds, _, err := Run(context.Background(), r, runstate.Env{})
	if err != nil {
		t.Fatal(err)
	}
	return fds
}

func TestDiscoverTiny(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 1, 1},
		{5, 5, 6, 6},
		{0, 1, 0, 1},
	}, nil, relation.NullEqNull)
	got := discoverFDs(t, r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("only dfd %v, only brute %v", a, b)
	}
}

func TestDiscoverDegenerate(t *testing.T) {
	if got := discoverFDs(t, relation.FromCodes(nil, nil, nil, relation.NullEqNull)); len(got) != 0 {
		t.Errorf("no columns: %v", got)
	}
	one := relation.FromCodes(nil, [][]int32{{0}, {3}}, nil, relation.NullEqNull)
	got := discoverFDs(t, one)
	if len(got) != 2 {
		t.Errorf("single row: %v", got)
	}
}

func TestConstantAndKeyColumns(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 0, 0}, // constant
		{0, 1, 2, 3}, // key
		{1, 1, 2, 2},
	}, nil, relation.NullEqNull)
	got := discoverFDs(t, r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("only dfd %v, only brute %v", a, b)
	}
}

func TestUndeterminedAttribute(t *testing.T) {
	// Rows differ only on col1: no FD has col1 on the RHS.
	r := relation.FromCodes(nil, [][]int32{
		{0, 0},
		{1, 2},
	}, nil, relation.NullEqNull)
	for _, f := range discoverFDs(t, r) {
		if f.RHS.Contains(1) {
			t.Errorf("col1 must not be determined: %v", f)
		}
	}
}

func TestAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 40; trial++ {
		r := dataset.Random(rng, 4+rng.Intn(36), 2+rng.Intn(6), 1+rng.Intn(4))
		got := discoverFDs(t, r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d (%dx%d): only dfd %v, only brute %v",
				trial, r.NumRows(), r.NumCols(), a, b)
		}
	}
}

func TestAgainstBruteMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 12; trial++ {
		r := dataset.RandomMixed(rng, 20+rng.Intn(80), 3+rng.Intn(5))
		got := discoverFDs(t, r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only dfd %v, only brute %v", trial, a, b)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(83))
	r := dataset.Random(rng, 60, 6, 3)
	if _, _, err := Run(ctx, r, runstate.Env{}); err == nil {
		t.Error("cancelled context must error")
	}
}
