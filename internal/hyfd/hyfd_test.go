package hyfd

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

// discoverFDs runs HyFD with default settings, failing the test on an
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
		t.Fatalf("only hyfd %v, only brute %v", a, b)
	}
}

func TestDiscoverConstantAndKey(t *testing.T) {
	r := relation.FromCodes(nil, [][]int32{
		{0, 0, 0, 0}, // constant
		{0, 1, 2, 3}, // key
		{1, 1, 2, 2},
	}, nil, relation.NullEqNull)
	got := discoverFDs(t, r)
	want := brute.MinimalFDs(r)
	if !dep.Equal(got, want) {
		a, b := dep.Diff(got, want, r.Names)
		t.Fatalf("only hyfd %v, only brute %v", a, b)
	}
}

func TestDiscoverEmptyAndDegenerate(t *testing.T) {
	if got := discoverFDs(t, relation.FromCodes(nil, nil, nil, relation.NullEqNull)); len(got) != 0 {
		t.Errorf("no columns: %v", got)
	}
	one := relation.FromCodes(nil, [][]int32{{0}}, nil, relation.NullEqNull)
	got := discoverFDs(t, one)
	if len(got) != 1 || got[0].LHS.Count() != 0 {
		t.Errorf("single row: %v", got)
	}
}

func TestAgainstBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		rows := 4 + rng.Intn(40)
		cols := 2 + rng.Intn(6)
		card := 1 + rng.Intn(4)
		r := dataset.Random(rng, rows, cols, card)
		got := discoverFDs(t, r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d (%dx%d card %d): only hyfd %v, only brute %v",
				trial, rows, cols, card, a, b)
		}
	}
}

func TestAgainstBruteMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		r := dataset.RandomMixed(rng, 20+rng.Intn(80), 3+rng.Intn(5))
		got := discoverFDs(t, r)
		want := brute.MinimalFDs(r)
		if !dep.Equal(got, want) {
			a, b := dep.Diff(got, want, r.Names)
			t.Fatalf("trial %d: only hyfd %v, only brute %v", trial, a, b)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	// Plant c3 = f(c0, c1) so the tree has FDs at level >= 2 and validation
	// levels definitely execute.
	r := dataset.Generate(dataset.Spec{
		Name: "stats", Rows: 300, Seed: 5,
		Columns: []dataset.Column{
			{Kind: dataset.Categorical, Card: 6},
			{Kind: dataset.Categorical, Card: 6},
			{Kind: dataset.Categorical, Card: 6},
			{Kind: dataset.Derived, Deps: []int{0, 1}, Card: 40},
		},
	})
	fds, stats, err := Run(context.Background(), r, runstate.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FDs != int64(len(fds)) {
		t.Errorf("stats.FDs = %d, len = %d", stats.FDs, len(fds))
	}
	if stats.Counters["sampling_rounds"] == 0 || stats.Counters["sampling_comparisons"] == 0 {
		t.Errorf("sampling stats empty: %+v", stats)
	}
	if stats.CandidatesValidated == 0 || stats.Levels == 0 {
		t.Errorf("validation stats empty: %+v", stats)
	}
	if stats.Invalidated > stats.CandidatesValidated {
		t.Errorf("invalidated %d > validations %d", stats.Invalidated, stats.CandidatesValidated)
	}
}

func TestConfigDefaults(t *testing.T) {
	if InvalidSwitchRatio != 0.01 || SamplingEfficiency != 0.01 {
		t.Errorf("defaults wrong: switch ratio %v, sampling efficiency %v", InvalidSwitchRatio, SamplingEfficiency)
	}
	// Extreme thresholds must not affect correctness, only performance.
	rng := rand.New(rand.NewSource(44))
	r := dataset.Random(rng, 30, 4, 3)
	want := brute.MinimalFDs(r)
	for _, th := range []float64{
		1e9, // never sample again
		1e-9,
	} {
		h := runstate.Env{}.Start("hyfd")
		got, _, err := h.Run(func() ([]dep.FD, error) { return discover(context.Background(), r, h, th, th) })
		if err != nil {
			t.Fatal(err)
		}
		if !dep.Equal(got, want) {
			t.Errorf("thresholds %v change results", th)
		}
	}
}
