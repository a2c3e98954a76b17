package integration

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dep"
	"repro/internal/runstate"
)

// TestParallelCoversMatchSerial: the worker-pool width must never change
// the discovered cover. DHyFD, HyFD and TANE — the three algorithms with a
// parallel validation hot path — are run at 1, 2 and 8 workers on several
// benchmark shapes and compared against each other and across widths.
func TestParallelCoversMatchSerial(t *testing.T) {
	fixtures := []struct {
		name       string
		rows, cols int
	}{
		{"ncvoter", 300, 10},
		{"bridges", 108, 9},
		{"abalone", 400, 8},
	}
	widths := []int{1, 2, 8}
	for _, fx := range fixtures {
		b, err := dataset.ByName(fx.name)
		if err != nil {
			t.Fatal(err)
		}
		r := b.Generate(fx.rows, fx.cols)
		ctx := context.Background()

		var want []dep.FD
		for _, w := range widths {
			got, _, err := run(ctx, "dhyfd", r, runstate.Env{Workers: w})
			if err != nil {
				t.Fatalf("%s dhyfd workers=%d: %v", fx.name, w, err)
			}
			if want == nil {
				want = got
			} else if !dep.Equal(got, want) {
				t.Errorf("%s: dhyfd cover at workers=%d differs from workers=1", fx.name, w)
			}
		}
		for _, w := range widths {
			got, _, err := run(ctx, "hyfd", r, runstate.Env{Workers: w})
			if err != nil {
				t.Fatalf("%s hyfd workers=%d: %v", fx.name, w, err)
			}
			if !dep.Equal(got, want) {
				t.Errorf("%s: hyfd cover at workers=%d differs from dhyfd serial", fx.name, w)
			}
		}
		for _, w := range widths {
			got, _, err := run(ctx, "tane", r, runstate.Env{Workers: w})
			if err != nil {
				t.Fatalf("%s tane workers=%d: %v", fx.name, w, err)
			}
			if !dep.Equal(got, want) {
				t.Errorf("%s: tane cover at workers=%d differs from dhyfd serial", fx.name, w)
			}
		}
	}
}

// TestRunStatsPopulated: every algorithm must emit a run report with at
// least one phase of non-zero wall time and a consistent FD count.
func TestRunStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := dataset.Random(rng, 200, 7, 4)
	ctx := context.Background()

	for _, name := range []string{"dhyfd", "hyfd", "tane", "fdep", "fdep1", "fdep2", "fastfds", "dfd"} {
		fds, rs, err := run(ctx, name, r, runstate.Env{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rs == nil {
			t.Fatalf("%s: nil run stats", name)
		}
		if rs.Algorithm != name {
			t.Errorf("%s: stats name %q", name, rs.Algorithm)
		}
		if len(rs.Phases) == 0 {
			t.Errorf("%s: no phases recorded", name)
		}
		if rs.PhaseTotal() <= 0 {
			t.Errorf("%s: zero total phase time", name)
		}
		if rs.Elapsed <= 0 {
			t.Errorf("%s: Elapsed not stamped", name)
		}
		if rs.Cancelled {
			t.Errorf("%s: Cancelled on a clean run", name)
		}
		if rs.FDs != int64(len(fds)) {
			t.Errorf("%s: stats.FDs=%d, len(fds)=%d", name, rs.FDs, len(fds))
		}
		if rs.String() == "" {
			t.Errorf("%s: empty String()", name)
		}
	}
}

// TestMidRunCancellationIsPrompt: cancelling while validation is under way
// must surface context.Canceled quickly — within one validation batch, not
// after the remaining lattice is processed. The relation is sized so a
// full run takes far longer than the accepted bound.
func TestMidRunCancellationIsPrompt(t *testing.T) {
	b, err := dataset.ByName("diabetic")
	if err != nil {
		t.Fatal(err)
	}
	r := b.Generate(1500, 20)

	full := time.Now()
	if _, _, err := run(context.Background(), "dhyfd", r, runstate.Env{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	fullElapsed := time.Since(full)
	// A cancelled run must finish well before a full one; the margin keeps
	// the test robust on slow CI machines while still catching a run that
	// ignores ctx until the end.
	bound := fullElapsed/2 + 250*time.Millisecond
	for _, name := range []string{"dhyfd", "hyfd", "tane"} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, rs, err := run(ctx, name, r, runstate.Env{Workers: 2})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
			continue
		}
		if rs == nil || !rs.Cancelled {
			t.Errorf("%s: partial stats missing Cancelled flag", name)
		}
		if elapsed > bound {
			t.Errorf("%s: cancellation took %v (full run %v, bound %v)", name, elapsed, fullElapsed, bound)
		}
	}
}
