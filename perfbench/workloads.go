package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	dhyfd "repro"
	"repro/internal/dataset"
)

// workload is one operation repeated in a closed loop by a single client
// over one generated input. BENCHMARK.json records why each was chosen
// and the layer it is predicted to stress.
type workload struct {
	name string
	// dataset names the internal/dataset shape; rows x cols is its size,
	// smokeRows x smokeCols the tiny size the smoke mode runs.
	dataset              string
	rows, cols           int
	smokeRows, smokeCols int
	// profile selects the profiling pipeline (Discover → CanonicalCover →
	// Rank → TotalRedundancy over one shared PLI cache) instead of a bare
	// Discover call.
	profile   bool
	algorithm dhyfd.Algorithm
	workers   int
	// reference is the independent algorithm the reference cover comes
	// from.
	reference dhyfd.Algorithm
}

var workloads = []workload{
	{
		name:    "wide-hepatitis",
		dataset: "hepatitis", rows: 155, cols: 20, smokeRows: 40, smokeCols: 8,
		algorithm: dhyfd.DHyFD, workers: 1, reference: dhyfd.TANE,
	},
	{
		name:    "tall-weather",
		dataset: "weather", rows: 20000, cols: 18, smokeRows: 400, smokeCols: 8,
		algorithm: dhyfd.DHyFD, workers: 2, reference: dhyfd.TANE,
	},
	{
		name:    "profile-flight",
		dataset: "flight", rows: 500, cols: 20, smokeRows: 60, smokeCols: 10,
		profile:   true,
		algorithm: dhyfd.DHyFD, workers: 1, reference: dhyfd.TANE,
	},
	{
		name:    "lattice-tane",
		dataset: "weather", rows: 20000, cols: 18, smokeRows: 400, smokeCols: 8,
		algorithm: dhyfd.TANE, workers: 1, reference: dhyfd.DHyFD,
	},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// input renders the workload's relation as CSV bytes, the only thing the
// program under test is given. The shape is the internal/dataset
// generator at its own fixed Spec.Seed, rows in generator order; seed
// respells every column's values through a seeded bijection. The
// dictionary codes ReadCSV assigns follow first appearance, so every
// seed yields different bytes but the same encoded relation, the same
// cover and the same discovery work. Row order is deliberately not
// seeded: DHyFD's sampling depends on it, and across five row shuffles of
// tall-weather allocation per op ranged from 87 to 132 MB, a spread no
// end-to-end bound could absorb.
func input(w workload, seed int64, smoke bool) ([]byte, error) {
	b, err := dataset.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	rows, cols := w.rows, w.cols
	if smoke {
		rows, cols = w.smokeRows, w.smokeCols
	}
	spec := b.Spec(rows, cols)
	var data [][]string
	err = dataset.Stream(spec, 0, func(block [][]string) error {
		for _, row := range block {
			data = append(data, append([]string(nil), row...))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.dataset, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for c := range spec.Columns {
		respell(rng, data, c)
	}
	var buf bytes.Buffer
	if err := csv.NewWriter(&buf).WriteAll(append([][]string{spec.Names()}, data...)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// respell renames column c's non-null values through a seeded
// permutation of its distinct values; the empty string stays the null.
func respell(rng *rand.Rand, data [][]string, c int) {
	seen := make(map[string]bool)
	var distinct []string
	for _, row := range data {
		if v := row[c]; v != "" && !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	sort.Strings(distinct)
	perm := rng.Perm(len(distinct))
	tag := strconv.FormatInt(rng.Int63n(1<<30), 36)
	names := make(map[string]string, len(distinct))
	for i, v := range distinct {
		names[v] = tag + "." + strconv.Itoa(perm[i])
	}
	for _, row := range data {
		if v := row[c]; v != "" {
			row[c] = names[v]
		}
	}
}

// outcome is what one operation produced.
type outcome struct {
	fds       []dhyfd.FD // the discovered cover, sorted on the profile workload
	canonical []dhyfd.FD
	ranked    []dhyfd.RankedFD
	totals    dhyfd.DatasetRedundancy

	stats                  dhyfd.RunStats
	rankStats, totalsStats dhyfd.RankStats
	// wall is the whole operation, discover the Discover call in it.
	wall, discover time.Duration
	// canonicalTime, rankTime and totalsTime time the pipeline's later
	// calls (profile workload only).
	canonicalTime, rankTime, totalsTime time.Duration
}

// runOp performs the workload's operation once on rel. Every call into
// the program is wrapped in a span of tr (nil records nothing); op
// identifies the operation's spans.
func runOp(ctx context.Context, w workload, rel *dhyfd.Relation, tr *tracer, op int) (outcome, error) {
	var out outcome
	root := tr.begin("op", -1, op)
	t0 := time.Now()
	opts := []dhyfd.Option{dhyfd.WithAlgorithm(w.algorithm), dhyfd.WithWorkers(w.workers)}
	var pc *dhyfd.PLICache
	if w.profile {
		pc = dhyfd.NewPLICache(0)
		defer pc.Close()
		opts = append(opts, dhyfd.WithCache(pc))
	}
	sp := tr.begin("dhyfd.Discover", root, op)
	res, err := dhyfd.Discover(ctx, rel, opts...)
	tr.end(sp)
	out.discover = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("discover: %w", err)
	}
	out.fds, out.stats = res.FDs, res.Stats
	if w.profile {
		if err := profileCover(ctx, rel, &out, tr, root, op, dhyfd.WithWorkers(w.workers), dhyfd.WithCache(pc)); err != nil {
			return out, err
		}
	}
	out.wall = time.Since(t0)
	tr.end(root)
	return out, nil
}

// profileCover runs the rest of the profiling pipeline on out.fds: sort,
// canonical cover, ranking and dataset totals, each call in its own span.
func profileCover(ctx context.Context, rel *dhyfd.Relation, out *outcome, tr *tracer, parent, op int, opts ...dhyfd.Option) error {
	sp := tr.begin("dhyfd.SortFDs", parent, op)
	dhyfd.SortFDs(out.fds)
	tr.end(sp)

	t := time.Now()
	sp = tr.begin("dhyfd.CanonicalCover", parent, op)
	out.canonical = dhyfd.CanonicalCover(rel.NumCols(), out.fds)
	tr.end(sp)
	out.canonicalTime = time.Since(t)

	t = time.Now()
	sp = tr.begin("dhyfd.Rank", parent, op)
	ranked, rs, err := dhyfd.Rank(ctx, rel, out.canonical, opts...)
	tr.end(sp)
	out.rankTime = time.Since(t)
	if err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	out.ranked, out.rankStats = ranked, rs

	t = time.Now()
	sp = tr.begin("dhyfd.TotalRedundancy", parent, op)
	totals, ts, err := dhyfd.TotalRedundancy(ctx, rel, out.canonical, opts...)
	tr.end(sp)
	out.totalsTime = time.Since(t)
	if err != nil {
		return fmt.Errorf("total redundancy: %w", err)
	}
	out.totals, out.totalsStats = totals, ts
	return nil
}

// render serializes an operation's output deterministically: the sorted
// cover, and for the profile workload the canonical cover, the ranking
// and the dataset totals after it. Two outputs are equal exactly when
// their renderings are byte-identical.
func render(profile bool, names []string, out outcome) []byte {
	fds := append([]dhyfd.FD(nil), out.fds...)
	dhyfd.SortFDs(fds)
	var b bytes.Buffer
	b.WriteString(dhyfd.FormatFDs(fds, names))
	if !profile {
		return b.Bytes()
	}
	b.WriteString("\n# canonical\n")
	b.WriteString(dhyfd.FormatFDs(out.canonical, names))
	b.WriteString("\n# ranked\n")
	for _, r := range out.ranked {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%d\n", r.FD.Format(names), r.Counts.WithNulls, r.Counts.NoNullRHS, r.Counts.NoNulls)
	}
	fmt.Fprintf(&b, "# totals %d %d %d\n", out.totals.Values, out.totals.Red, out.totals.RedWithNulls)
	return b.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
