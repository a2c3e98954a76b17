package main

import (
	"sort"
	"time"

	dhyfd "repro"
)

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is a metric's distribution over the samples behind it.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize sorts xs in place. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (the exclusive method), the rule the
// benchmark's spread is judged by.
func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.Min, s.Max, s.Median = xs[0], xs[len(xs)-1], median(xs)
	s.Q1, s.Q3 = s.Median, s.Median
	if len(xs) >= 2 {
		s.Q1, s.Q3 = quantile(xs, 1), quantile(xs, 3)
	}
	return s
}

// median of sorted xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the i-th quartile of sorted xs (len >= 2) by the
// exclusive method.
func quantile(xs []float64, i int) float64 {
	ld := len(xs)
	m := ld + 1
	j := min(max(i*m/4, 1), ld-1)
	delta := i*m - j*4
	return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
}

// collect maps the selected ops through f.
func collect(ops []opSample, keep func(opSample) bool, f func(opSample) float64) []float64 {
	var xs []float64
	for _, o := range ops {
		if keep(o) {
			xs = append(xs, f(o))
		}
	}
	return xs
}

func all(opSample) bool             { return true }
func timedUntraced(o opSample) bool { return !o.Warmup && !o.Traced && o.Err == "" }
func timedTraced(o opSample) bool   { return !o.Warmup && o.Traced && o.Err == "" }

// undisturbed returns the indices of the samples the hypervisor left
// alone: those whose steal share (steal time over the CPU time the
// machine's ncpu CPUs offered during the sample) is at most maxSteal.
// When fewer than a quarter of the samples, or fewer than
// minUndisturbed, qualify, the least-stolen samples make up the number. On a
// shared host the run-to-run spread of wall times is dominated by steal,
// which slows whole runs by up to half; ops with little steal agree.
func undisturbed(walls, steals []float64, ncpu int) []int {
	idx := make([]int, len(walls))
	for i := range idx {
		idx[i] = i
	}
	share := func(i int) float64 { return ratio(steals[i], float64(ncpu)*walls[i]) }
	sort.SliceStable(idx, func(a, b int) bool { return share(idx[a]) < share(idx[b]) })
	n := 0
	for n < len(idx) && share(idx[n]) <= maxSteal {
		n++
	}
	return idx[:min(len(idx), max(n, minUndisturbed, len(idx)/4))]
}

const (
	maxSteal       = 0.02
	minUndisturbed = 3
)

// pickOps returns the timed ops that keep selects, reduced to the
// undisturbed ones.
func pickOps(ops []opSample, keep func(opSample) bool, ncpu int) []opSample {
	var sel []opSample
	for _, o := range ops {
		if keep(o) {
			sel = append(sel, o)
		}
	}
	walls := make([]float64, len(sel))
	steals := make([]float64, len(sel))
	for i, o := range sel {
		walls[i], steals[i] = o.WallS, o.StealS
	}
	var out []opSample
	for _, i := range undisturbed(walls, steals, ncpu) {
		out = append(out, sel[i])
	}
	return out
}

// setupSamples returns the undisturbed set-up samples.
func setupSamples(m measureReport, ncpu int) []float64 {
	var xs []float64
	for _, i := range undisturbed(m.SetupS, m.SetupStealS, ncpu) {
		xs = append(xs, m.SetupS[i])
	}
	return xs
}

// endToEndMetrics are medians over the undisturbed untraced ops and
// set-up samples, plus the measuring process's peak RSS.
func endToEndMetrics(m measureReport, ncpu int) map[string]summary {
	ops := pickOps(m.Ops, timedUntraced, ncpu)
	pick := func(f func(opSample) float64) []float64 { return collect(ops, all, f) }
	return map[string]summary{
		"discover_s":  summarize("s", pick(func(o opSample) float64 { return o.DiscoverS })),
		"profile_s":   summarize("s", pick(func(o opSample) float64 { return o.WallS })),
		"cpu_s":       summarize("s", pick(func(o opSample) float64 { return o.CPUS })),
		"alloc_mb":    summarize("MB", pick(func(o opSample) float64 { return o.AllocMB })),
		"peak_rss_mb": summarize("MB", []float64{float64(m.VmHWMKB) / 1024}),
		"setup_s":     summarize("s", setupSamples(m, ncpu)),
	}
}

// allOpsMetrics are the wall-time medians over every timed op, disturbed
// or not, recorded next to the result for comparison.
func allOpsMetrics(m measureReport) map[string]summary {
	return map[string]summary{
		"discover_s": summarize("s", collect(m.Ops, timedUntraced, func(o opSample) float64 { return o.DiscoverS })),
		"profile_s":  summarize("s", collect(m.Ops, timedUntraced, func(o opSample) float64 { return o.WallS })),
		"steal_s":    summarize("s", collect(m.Ops, timedUntraced, func(o opSample) float64 { return o.StealS })),
	}
}

// layerMetrics are the traced run's per-layer figures. Layers the
// workload's op calls are medians over the traced ops; the others come
// from the reference computation on the same input (source says which).
func layerMetrics(w workload, m measureReport, ref refReport, ncpu int) (map[string]summary, map[string]string) {
	out := map[string]summary{}
	source := map[string]string{}
	traced := func(name, unit string, f func(opSample) float64) {
		out[name] = summarize(unit, collect(m.Ops, timedTraced, f))
		source[name] = "op"
	}
	fromRef := func(name, unit string, v float64) {
		out[name] = summarize(unit, []float64{v})
		source[name] = "reference:" + ref.Algorithm
	}
	// stat reads a RunStats figure from the ops when the op runs alg,
	// else from the reference run.
	stat := func(alg dhyfd.Algorithm, name, unit string, f func(*dhyfd.RunStats) float64) {
		if w.algorithm == alg {
			traced(name, unit, func(o opSample) float64 { return f(&o.Stats) })
		} else {
			fromRef(name, unit, f(&ref.Stats))
		}
	}
	phase := func(p string) func(*dhyfd.RunStats) float64 {
		return func(s *dhyfd.RunStats) float64 { return s.PhaseDuration(p).Seconds() }
	}
	counter := func(c string) func(*dhyfd.RunStats) float64 {
		return func(s *dhyfd.RunStats) float64 { return float64(s.Counters[c]) }
	}

	out["relation.read_csv_s"] = summarize("s", setupSamples(m, ncpu))
	source["relation.read_csv_s"] = "setup"

	for _, p := range []string{"sample", "induct", "validate", "refine"} {
		stat(dhyfd.DHyFD, "core."+p+"_s", "s", phase(p))
	}
	stat(dhyfd.DHyFD, "core.candidates", "count", func(s *dhyfd.RunStats) float64 { return float64(s.CandidatesValidated) })
	stat(dhyfd.DHyFD, "core.valid_yield", "ratio", func(s *dhyfd.RunStats) float64 {
		return 1 - ratio(float64(s.Invalidated), float64(s.CandidatesValidated))
	})
	stat(dhyfd.DHyFD, "core.ddm_refreshes", "count", counter("ddm_refreshes"))
	stat(dhyfd.DHyFD, "core.levels", "count", func(s *dhyfd.RunStats) float64 { return float64(s.Levels) })
	stat(dhyfd.DHyFD, "core.peak_dyn_rows", "rows", counter("peak_dyn_rows"))
	stat(dhyfd.DHyFD, "sampling.comparisons", "count", counter("sampling_comparisons"))
	stat(dhyfd.DHyFD, "sampling.non_fds", "count", counter("initial_non_fds"))
	stat(dhyfd.DHyFD, "sampling.yield", "ratio", func(s *dhyfd.RunStats) float64 {
		return ratio(float64(s.Counters["initial_non_fds"]), float64(s.Counters["sampling_comparisons"]))
	})

	stat(dhyfd.TANE, "tane.generate_s", "s", phase("generate"))
	stat(dhyfd.TANE, "tane.validate_s", "s", phase("validate"))
	stat(dhyfd.TANE, "tane.candidates", "count", func(s *dhyfd.RunStats) float64 { return float64(s.CandidatesValidated) })
	stat(dhyfd.TANE, "tane.levels", "count", func(s *dhyfd.RunStats) float64 { return float64(s.Levels) })

	// The partition counters describe the op's own Discover call, with
	// the ranking calls' cache traffic added on the profile workload.
	traced("partition.built", "count", func(o opSample) float64 { return float64(o.Stats.PartitionsBuilt) })
	traced("partition.refined", "count", func(o opSample) float64 { return float64(o.Stats.PartitionsRefined) })
	traced("partition.rows_scanned", "rows", func(o opSample) float64 { return float64(o.Stats.RowsScanned) })
	traced("partition.shards", "count", func(o opSample) float64 { return float64(o.Stats.ShardsBuilt) })
	hits := func(o opSample) float64 { return float64(o.Stats.CacheHits + o.Rank.CacheHits + o.Totals.CacheHits) }
	misses := func(o opSample) float64 {
		return float64(o.Stats.CacheMisses + o.Rank.CacheMisses + o.Totals.CacheMisses)
	}
	traced("partition.cache_hits", "count", hits)
	traced("partition.cache_misses", "count", misses)
	traced("partition.cache_hit_ratio", "ratio", func(o opSample) float64 { return ratio(hits(o), hits(o)+misses(o)) })

	// Cover and ranking: the op's calls on the profile workload, the
	// reference pipeline's elsewhere.
	type rankFig struct {
		name, unit string
		op         func(opSample) float64
		ref        float64
	}
	rankBuilt := func(a, b dhyfd.RankStats) float64 { return float64(a.PartitionsBuilt + b.PartitionsBuilt) }
	rankReused := func(a, b dhyfd.RankStats) float64 { return float64(a.PartitionsReused + b.PartitionsReused) }
	rankRows := func(a, b dhyfd.RankStats) float64 { return float64(a.RowsScanned + b.RowsScanned) }
	for _, f := range []rankFig{
		{"cover.canonical_s", "s", func(o opSample) float64 { return o.CanonicalS }, ref.CanonicalS},
		{"cover.canonical_fds", "count", func(o opSample) float64 { return float64(o.CanonicalFDs) }, float64(ref.CanonicalFDs)},
		{"ranking.rank_s", "s", func(o opSample) float64 { return o.RankS }, ref.RankS},
		{"ranking.totals_s", "s", func(o opSample) float64 { return o.TotalsS }, ref.TotalsS},
		{"ranking.partitions_built", "count", func(o opSample) float64 { return rankBuilt(o.Rank, o.Totals) }, rankBuilt(ref.Rank, ref.TotalsStats)},
		{"ranking.partitions_reused", "count", func(o opSample) float64 { return rankReused(o.Rank, o.Totals) }, rankReused(ref.Rank, ref.TotalsStats)},
		{"ranking.rows_scanned", "rows", func(o opSample) float64 { return rankRows(o.Rank, o.Totals) }, rankRows(ref.Rank, ref.TotalsStats)},
	} {
		if w.profile {
			traced(f.name, f.unit, f.op)
		} else {
			fromRef(f.name, f.unit, f.ref)
		}
	}

	if p := m.Probe; p != nil {
		for name, v := range map[string]float64{
			"partition.singles_s":       p.SinglesS,
			"sampling.initial_sample_s": p.InitialSampleS,
			"fdtree.induct_s":           p.InductS,
		} {
			out[name] = summarize("s", []float64{v})
			source[name] = "probe"
		}
		out["fdtree.nodes"] = summarize("count", []float64{float64(p.Nodes)})
		out["fdtree.fds"] = summarize("count", []float64{float64(p.FDs)})
		source["fdtree.nodes"], source["fdtree.fds"] = "probe", "probe"
	}

	discover := func(o opSample) float64 { return o.DiscoverS }
	untraced := summarize("s", collect(pickOps(m.Ops, timedUntraced, ncpu), all, discover))
	tracedDiscover := summarize("s", collect(pickOps(m.Ops, timedTraced, ncpu), all, discover))
	out["trace.overhead_s"] = summarize("s", []float64{tracedDiscover.Median - untraced.Median})
	out["trace.unattributed_s"] = summarize("s", unattributed(m))
	source["trace.overhead_s"], source["trace.unattributed_s"] = "trace", "trace"
	return out, source
}

// unattributed returns, per traced op, the part of its wall time that no
// phase and no leaf span accounts for: the self time of the op span and
// of its Discover span.
func unattributed(m measureReport) []float64 {
	phased := phaseTotals(m)
	self := selfTimes(m.Spans, phased)
	perOp := map[int]time.Duration{}
	for i, s := range m.Spans {
		if _, ok := phased[s.Op]; ok && (s.Name == "op" || s.Name == "dhyfd.Discover") {
			perOp[s.Op] += self[i]
		}
	}
	xs := make([]float64, 0, len(perOp))
	for _, d := range perOp {
		xs = append(xs, d.Seconds())
	}
	return xs
}

// layerSelfTimes sums each layer's self time per traced op and returns
// the median over ops: spans by name, phases as <algorithm>.<phase>.
func layerSelfTimes(m measureReport) map[string]float64 {
	phased := phaseTotals(m)
	perLayer := map[string]map[int]time.Duration{}
	add := func(layer string, op int, d time.Duration) {
		if perLayer[layer] == nil {
			perLayer[layer] = map[int]time.Duration{}
		}
		perLayer[layer][op] += d
	}
	for i, o := range m.Ops {
		if !timedTraced(o) {
			continue
		}
		prefix := "core."
		if o.Stats.Algorithm == "tane" {
			prefix = "tane."
		}
		for _, p := range o.Stats.Phases {
			add(prefix+p.Name, i, p.Duration)
		}
	}
	self := selfTimes(m.Spans, phased)
	for i, s := range m.Spans {
		if _, ok := phased[s.Op]; ok {
			add(s.Name, s.Op, self[i])
		}
	}
	res := map[string]float64{}
	for layer, byOp := range perLayer {
		xs := make([]float64, 0, len(phased))
		for op := range phased {
			xs = append(xs, byOp[op].Seconds())
		}
		sort.Float64s(xs)
		res[layer] = median(xs)
	}
	return res
}

// phaseTotals maps each traced op to the total phase time its Discover
// call reported.
func phaseTotals(m measureReport) map[int]time.Duration {
	phased := map[int]time.Duration{}
	for i, o := range m.Ops {
		if timedTraced(o) {
			phased[i] = o.Stats.PhaseTotal()
		}
	}
	return phased
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
