package main

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	dhyfd "repro"
)

// TestMain lets the smoke test's child processes, which re-execute this
// test binary with roleEnv set, run their role instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload once at a tiny size, untraced and traced,
// and fails when a metric BENCHMARK.json names is missing or a corrupted
// reference goes unnoticed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	cfg := config{seed: 1, out: t.TempDir(), benchJSON: "../BENCHMARK.json"}
	if err := smoke(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		s := summarize("s", c.xs)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.m, c.q3)
		}
	}
}

func TestUndisturbed(t *testing.T) {
	walls := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	for _, c := range []struct {
		steals []float64
		want   []int
	}{
		// Every sample within the 2% steal share on 2 CPUs: all kept,
		// least stolen first.
		{[]float64{0, 0.01, 0.04, 0, 0, 0, 0, 0}, []int{0, 3, 4, 5, 6, 7, 1, 2}},
		// One clean sample: topped up to three with the least stolen.
		{[]float64{0.9, 0.5, 0, 0.7, 0.6, 0.8, 0.3, 0.4}, []int{2, 6, 7}},
	} {
		got := undisturbed(walls, c.steals, 2)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("steals %v: kept %v, want %v", c.steals, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "dhyfd.Discover", Start: 10, End: 70, Parent: 0, Op: 0},
		{Name: "dhyfd.Rank", Start: 70, End: 90, Parent: 0, Op: 0},
	}
	got := selfTimes(spans, map[int]time.Duration{0: 45})
	want := []time.Duration{20, 15, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i, got[i], want[i])
		}
	}
}

func TestInputSeedChangesBytesNotCodes(t *testing.T) {
	w, err := workloadByName("wide-hepatitis")
	if err != nil {
		t.Fatal(err)
	}
	a, err := input(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := input(w, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	again, err := input(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(again) {
		t.Fatal("the same seed gave different inputs")
	}
	if string(a) == string(b) {
		t.Fatal("different seeds gave the same bytes")
	}
	ra, err := dhyfd.ReadCSV(bytes.NewReader(a), dhyfd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := dhyfd.ReadCSV(bytes.NewReader(b), dhyfd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra.Cols, rb.Cols) {
		t.Fatal("different seeds gave different dictionary codes")
	}
}
