package partition

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/relation"
)

// refineRef is the serial reference kernel every Kernels strategy must
// reproduce byte for byte.
func refineRef(p *Partition, col []int32, card int) *Partition {
	return (&Refiner{}).refine(p, col, card)
}

// forAttrs is π_X through a fresh one-worker, uncached Kernels.
func forAttrs(x bitset.Set, cols [][]int32, cards []int) *Partition {
	p, _, err := NewKernels(nil, 0, nil).ForAttrs(context.Background(), x, cols, cards)
	if err != nil {
		panic(err)
	}
	return p
}

// chainRef refines Single(attrs[0]) by attrs[1:] in order, stopping at
// the first cluster-free partition.
func chainRef(r *relation.Relation, attrs []int) *Partition {
	p := Single(r.Cols[attrs[0]], r.Cards[attrs[0]])
	for _, a := range attrs[1:] {
		if p.Card() == 0 {
			break
		}
		p = refineRef(p, r.Cols[a], r.Cards[a])
	}
	return p
}

type kernelsInput struct {
	name string
	r    *relation.Relation
}

// kernelsInputs is every benchmark relation (419 rows, up to eight
// columns) plus two random relations in the shapes the batch and
// cached-walk tests always used.
func kernelsInputs() []kernelsInput {
	var in []kernelsInput
	for _, b := range dataset.All() {
		if r := b.Generate(419, 8); r.NumCols() >= 3 {
			in = append(in, kernelsInput{b.Name, r})
		}
	}
	in = append(in,
		kernelsInput{"random500x6", dataset.Random(rand.New(rand.NewSource(7)), 500, 6, 8)},
		kernelsInput{"random400x8", dataset.Random(rand.New(rand.NewSource(11)), 400, 8, 6)},
	)
	return in
}

// attrSets returns the multi-attribute sets the ForAttrs cells query, in
// query order: later sets extend earlier ones, so the cached walk both
// starts cold and resumes from published prefixes.
func attrSets(n int) []bitset.Set {
	var sets []bitset.Set
	for _, attrs := range [][]int{{0, 1}, {1, 2}, {0, 1, 2}, {0, 2, 4, 5}, {1, 2, 3}} {
		var in []int
		for _, a := range attrs {
			if a < n {
				in = append(in, a)
			}
		}
		sets = append(sets, bitset.FromAttrs(n, in...))
	}
	all := make([]int, n)
	for a := range all {
		all[a] = a
	}
	return append(sets, bitset.FromAttrs(n, all...))
}

// TestKernelsMatrix pins the one-surface contract: every Kernels method,
// at every (workers, shardSize) — degenerate one-row shards, an
// unaligned prime, a typical size, the production default and the whole
// relation — reproduces the serial reference kernels' compact layout
// (backing and offsets) byte for byte on every benchmark relation.
func TestKernelsMatrix(t *testing.T) {
	ctx := context.Background()
	inputs := kernelsInputs()
	type cell func(t *testing.T, in kernelsInput, k *Kernels, shardSize int)
	ops := []struct {
		name string
		run  cell
	}{
		{"Singles", func(t *testing.T, in kernelsInput, k *Kernels, shardSize int) {
			got, built, err := k.Singles(ctx, in.r.Cols, in.r.Cards, nil)
			if err != nil || built != in.r.NumCols() {
				t.Fatalf("%s shard=%d: built=%d err=%v", in.name, shardSize, built, err)
			}
			for c := range got {
				assertSameCompact(t, in.name, shardSize, c, Single(in.r.Cols[c], in.r.Cards[c]), got[c])
			}
		}},
		{"Refine", func(t *testing.T, in kernelsInput, k *Kernels, shardSize int) {
			parent := Single(in.r.Cols[0], in.r.Cards[0])
			for pass := 0; pass < 2; pass++ { // the second pass runs on warm scratch
				got, err := k.Refine(ctx, parent, in.r.Cols[1], in.r.Cards[1])
				if err != nil {
					t.Fatalf("%s shard=%d: %v", in.name, shardSize, err)
				}
				assertSameCompact(t, in.name, shardSize, 1, refineRef(parent, in.r.Cols[1], in.r.Cards[1]), got)
			}
		}},
		{"Intersect", func(t *testing.T, in kernelsInput, k *Kernels, shardSize int) {
			// The product of π_{0,1} and π_{0,2}, refining either parent
			// by the other's last column, is π_{0,1,2}.
			r, n := in.r, in.r.NumCols()
			p01 := forAttrs(bitset.FromAttrs(n, 0, 1), r.Cols, r.Cards)
			p02 := forAttrs(bitset.FromAttrs(n, 0, 2), r.Cols, r.Cards)
			got, err := k.IntersectAll(ctx, []IntersectJob{
				{Part: p01, Col: r.Cols[2], Card: r.Cards[2]},
				{Part: p02, Col: r.Cols[1], Card: r.Cards[1]},
			})
			if err != nil {
				t.Fatalf("%s shard=%d: %v", in.name, shardSize, err)
			}
			for side, p := range got {
				if want := forAttrs(bitset.FromAttrs(n, 0, 1, 2), r.Cols, r.Cards); !p.Equal(want) {
					t.Fatalf("%s shard=%d side %d: product differs from π_{0,1,2}", in.name, shardSize, side)
				}
			}
		}},
		{"ForAttrs", func(t *testing.T, in kernelsInput, k *Kernels, shardSize int) {
			for i, x := range attrSets(in.r.NumCols()) {
				attrs := x.Attrs()
				orderForRefine(attrs, in.r.Cards, in.r.NumRows())
				got, hit, err := k.ForAttrs(ctx, x, in.r.Cols, in.r.Cards)
				if err != nil || hit {
					t.Fatalf("%s shard=%d set %v: hit=%v err=%v", in.name, shardSize, x.Attrs(), hit, err)
				}
				assertSameCompact(t, in.name, shardSize, i, chainRef(in.r, attrs), got)
			}
		}},
		{"ForAttrsCached", func(t *testing.T, in kernelsInput, _ *Kernels, shardSize int) {
			for _, workers := range []int{1, 3} {
				k := NewKernels(engine.NewPool(workers), shardSize, NewCache(1<<30, nil))
				published := map[string]bool{}
				sets := attrSets(in.r.NumCols())
				got := make([]*Partition, len(sets))
				for i, x := range sets {
					p, hit, err := k.ForAttrs(ctx, x, in.r.Cols, in.r.Cards)
					if err != nil {
						t.Fatalf("%s shard=%d: %v", in.name, shardSize, err)
					}
					if want := published[x.Key()]; hit != want {
						t.Fatalf("%s shard=%d set %v: hit=%v, want %v", in.name, shardSize, x.Attrs(), hit, want)
					}
					attrs := x.Attrs()
					for j := range attrs {
						published[bitset.FromAttrs(in.r.NumCols(), attrs[:j+1]...).Key()] = true
					}
					assertSameCompact(t, in.name, shardSize, i, chainRef(in.r, attrs), p)
					got[i] = p
				}
				// A second pass is exact hits serving the same partitions.
				for i, x := range sets {
					p, hit, err := k.ForAttrs(ctx, x, in.r.Cols, in.r.Cards)
					if err != nil || !hit || p != got[i] {
						t.Fatalf("%s shard=%d second pass %v: hit=%v same=%v err=%v",
							in.name, shardSize, x.Attrs(), hit, p == got[i], err)
					}
				}
			}
		}},
		{"RefineAll", func(t *testing.T, in kernelsInput, k *Kernels, shardSize int) {
			r := in.r
			n := r.NumCols()
			var jobs []RefineJob
			var want []*Partition
			for c := 0; c < n; c++ {
				b, d := (c+1)%n, (c+2)%n
				jobs = append(jobs, RefineJob{
					Part:  Single(r.Cols[c], r.Cards[c]),
					Cols:  [][]int32{r.Cols[b], r.Cols[d]},
					Cards: []int{r.Cards[b], r.Cards[d]},
				})
				want = append(want, chainRef(r, []int{c, b, d}))
			}
			got, err := k.RefineAll(ctx, jobs)
			if err != nil {
				t.Fatalf("%s shard=%d: %v", in.name, shardSize, err)
			}
			for i := range want {
				assertSameCompact(t, in.name, shardSize, i, want[i], got[i])
			}
		}},
		{"IntersectAll", func(t *testing.T, in kernelsInput, k *Kernels, shardSize int) {
			r := in.r
			n := r.NumCols()
			singles := make([]*Partition, n)
			for c := range singles {
				singles[c] = Single(r.Cols[c], r.Cards[c])
			}
			// Runs of jobs share Part, like TANE's prefix blocks.
			var jobs []IntersectJob
			var want []*Partition
			for c := 0; c < n; c++ {
				for _, d := range []int{(c + 1) % n, (c + 2) % n} {
					jobs = append(jobs, IntersectJob{Part: singles[c], Col: r.Cols[d], Card: r.Cards[d]})
					want = append(want, refineRef(singles[c], r.Cols[d], r.Cards[d]))
				}
			}
			got, err := k.IntersectAll(ctx, jobs)
			if err != nil {
				t.Fatalf("%s shard=%d: %v", in.name, shardSize, err)
			}
			for i := range want {
				assertSameCompact(t, in.name, shardSize, i, want[i], got[i])
			}
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			for _, in := range inputs {
				for _, shardSize := range []int{1, 7, 64, 1 << 16, in.r.NumRows()} {
					if op.name == "ForAttrsCached" {
						op.run(t, in, nil, shardSize)
						continue
					}
					for _, workers := range []int{1, 3} {
						op.run(t, in, NewKernels(engine.NewPool(workers), shardSize, nil), shardSize)
					}
				}
			}
		})
	}
}

// TestKernelsForAttrsCacheAccounting pins the cache traffic of one
// ForAttrs call: an exact hit counts one hit, a walk resuming from a
// cached prefix one hit, and a cold walk one miss.
func TestKernelsForAttrsCacheAccounting(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(3)), 200, 4, 5)
	for _, workers := range []int{1, 3} {
		cache := NewCache(1<<30, nil)
		k := NewKernels(engine.NewPool(workers), 16, cache)
		steps := []struct {
			attrs        []int
			hits, misses int64
		}{
			{[]int{0, 1}, 0, 1},    // cold
			{[]int{0, 1}, 1, 1},    // exact hit
			{[]int{0, 1, 3}, 2, 1}, // resumes from {0,1}
			{[]int{2}, 2, 2},       // cold single
		}
		for _, s := range steps {
			if _, _, err := k.ForAttrs(ctx, bitset.FromAttrs(4, s.attrs...), r.Cols, r.Cards); err != nil {
				t.Fatal(err)
			}
			if st := cache.Stats(); st.Hits != s.hits || st.Misses != s.misses {
				t.Fatalf("workers=%d after %v: %d hits / %d misses, want %d / %d",
					workers, s.attrs, st.Hits, st.Misses, s.hits, s.misses)
			}
		}
	}
}

// TestKernelsAllocsPerRun pins the warm one-worker paths: Refine
// allocates only its output partition (struct, backing, offsets) and a
// ForAttrs exact hit allocates nothing.
func TestKernelsAllocsPerRun(t *testing.T) {
	ctx := context.Background()
	a := randomColumn(20_000, 50, 1)
	c := randomColumn(20_000, 50, 2)
	pa := Single(a, 50)
	k := NewKernels(nil, 0, nil)
	if _, err := k.Refine(ctx, pa, c, 50); err != nil { // warm scratch
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() { _, _ = k.Refine(ctx, pa, c, 50) }); got > 3 {
		t.Errorf("Refine allocs/run = %.0f, want <= 3", got)
	}

	kc := NewKernels(nil, 0, NewCache(1<<30, nil))
	cols, cards := [][]int32{a, c}, []int{50, 50}
	x := bitset.FromAttrs(2, 0, 1)
	if _, _, err := kc.ForAttrs(ctx, x, cols, cards); err != nil { // publish
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() { _, _, _ = kc.ForAttrs(ctx, x, cols, cards) }); got != 0 {
		t.Errorf("ForAttrs exact-hit allocs/run = %.0f, want 0", got)
	}
}

// TestKernelsIntersectFaultParity: partition.intersect fires once per
// product, whether IntersectAll runs one job or a batch, on one worker
// or on several.
func TestKernelsIntersectFaultParity(t *testing.T) {
	ctx := context.Background()
	r := dataset.Random(rand.New(rand.NewSource(5)), 300, 3, 3)
	pa := Single(r.Cols[0], r.Cards[0])
	pb := Single(r.Cols[1], r.Cards[1])
	defer faults.Reset()
	for _, workers := range []int{1, 3} {
		k := NewKernels(engine.NewPool(workers), 8, nil)
		batches := [][]IntersectJob{
			{{Part: pa, Col: r.Cols[1], Card: r.Cards[1]}},
			{
				{Part: pa, Col: r.Cols[2], Card: r.Cards[2]},
				{Part: pb, Col: r.Cols[0], Card: r.Cards[0]},
				{Part: pb, Col: r.Cols[2], Card: r.Cards[2]},
			},
		}
		for i, jobs := range batches {
			name := fmt.Sprintf("workers=%d batch %d", workers, i)
			call := func() error { _, err := k.IntersectAll(ctx, jobs); return err }
			// Armed to fire on hit len(jobs)+1: the first batch must
			// pass, the second must reach it.
			faults.Arm(faults.PartitionIntersect, faults.Plan{Kind: faults.KindError, N: len(jobs) + 1, Class: faults.ClassTransient})
			if err := call(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !faults.Armed(faults.PartitionIntersect) {
				t.Fatalf("%s: a batch hit partition.intersect more than once per job", name)
			}
			err := func() (err error) {
				defer engine.Recover("test", &err)
				return call()
			}()
			if !errors.Is(err, faults.ErrInjected) || faults.Armed(faults.PartitionIntersect) {
				t.Fatalf("%s: second batch did not hit the site (err %v)", name, err)
			}
		}
	}
}
