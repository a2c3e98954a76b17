// Package hyfd implements the hybrid FD discovery algorithm of Papenbrock
// and Naumann (SIGMOD 2016), the strongest baseline of the paper.
//
// HyFD alternates two phases. The sampling phase compares likely-similar
// tuple pairs — sorted-neighborhood runs over the clusters of the
// single-attribute partitions, with a per-column efficiency queue that
// always grows the most productive run — and inducts the resulting non-FDs
// into an FD-tree. The validation phase checks the tree level by level
// against the data; when a level invalidates more than a configured
// fraction of its candidates, control returns to the (cheaper) sampler to
// prune deeper levels before they are reached.
//
// Following the paper (Section V-B), this implementation uses synergized
// induction on extended FD-trees, which already improves on the published
// HyFD numbers. Validation always refines the single-attribute partitions
// from scratch; reusing refinements across levels is exactly what DHyFD's
// dynamic data manager adds (package core). The validation phase runs on
// the shared engine.Pool when Config.Workers is above one.
package hyfd

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/fdtree"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
	"repro/internal/topk"
	"repro/internal/validate"
)

// manifestMax caps how many PLI-cache keys a checkpoint snapshot records.
const manifestMax = 64

// Config tunes the phase-switching heuristics and the validation pool.
type Config struct {
	// InvalidSwitchRatio: after a validation level, switch to sampling when
	// invalidated/validated exceeds this fraction. Default 0.01.
	InvalidSwitchRatio float64
	// SamplingEfficiency: a sampling phase keeps growing runs while the best
	// run yields at least this many new non-FDs per comparison. Default 0.01.
	SamplingEfficiency float64
	// Workers sets the engine.Pool width for the validation phase.
	// Values below 2 keep the published serial behaviour; sampling and
	// induction are sequential either way.
	Workers int
	// ShardSize is the row-block size of the sharded single-attribute
	// partition bootstrap: columns longer than one shard group and merge
	// on the worker pool instead of serially. <= 0 selects
	// partition.DefaultShardSize.
	ShardSize int
	// Budget optionally bounds partition memory. HyFD holds only the
	// single-attribute partitions, so exhaustion cannot change its
	// behaviour — the run is flagged Degraded to tell the caller the
	// budget could not be honoured. Nil means unlimited.
	Budget *partition.Budget
	// Cache optionally shares stripped partitions across runs over the
	// same relation; HyFD reads and publishes only the single-attribute
	// partitions. Nil disables caching.
	Cache *partition.Cache
	// TopK, when non-nil, fuses redundancy-ranked top-k selection into
	// the validation phase: validated FDs are offered to the collector
	// scored by ‖π_LHS‖ and candidate nodes whose best reachable score —
	// the smallest single-attribute partition size over their LHS —
	// cannot beat the admission threshold are skipped. The run returns
	// the collector's FDs in ranking order instead of the full cover.
	TopK *topk.Collector
	// MaxViolations relaxes validation to the g3-style bound: lhs → A
	// counts as valid while at most MaxViolations rows must be deleted
	// for it to hold exactly. Positive values disable sampling (exact
	// violating pairs must not refute approximately valid FDs); the
	// search tree specializes from validation outcomes instead. 0 keeps
	// exact discovery.
	MaxViolations int
	// Checkpoint, when non-nil, snapshots the FD-tree, non-FD set, level
	// cursor and per-column sampler runs at every validation-level
	// boundary so a killed run can resume. Nil disables durability.
	Checkpoint *runstate.Checkpointer
	// Resume, when non-nil, seeds the run from a snapshot's level
	// frontier: tree, non-FD set and sampler runs are restored and
	// validation restarts at the cursor. The caller has already
	// fingerprint-matched it.
	Resume *runstate.Snapshot
	// Retries bounds supervised re-runs of transiently failed pool items
	// (capped exponential backoff with full jitter). 0 disables retries.
	Retries int
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{InvalidSwitchRatio: 0.01, SamplingEfficiency: 0.01}
}

func (c *Config) fillDefaults() {
	if c.InvalidSwitchRatio <= 0 {
		c.InvalidSwitchRatio = 0.01
	}
	if c.SamplingEfficiency <= 0 {
		c.SamplingEfficiency = 0.01
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
}

// Stats reports what the run did; the scalability experiments chart them.
type Stats struct {
	SamplingRounds int // sorted-neighborhood runs executed
	Comparisons    int // tuple pairs compared while sampling
	NonFDs         int // distinct agree sets collected
	Validations    int // (node, RHS attr) validations
	Invalidated    int // validations that failed
	Levels         int // validation levels processed
	FDs            int // FDs in the output cover
}

// run is one sorted-neighborhood sampling run state for a column.
type run struct {
	col        int
	distance   int     // next window distance to execute
	efficiency float64 // of the last executed window
	exhausted  bool
}

type sampler struct {
	ctx  context.Context
	pool *engine.Pool
	r    *relation.Relation
	plis []*partition.Partition
	runs []run
	cfg  Config
}

func newSampler(ctx context.Context, pool *engine.Pool, r *relation.Relation, plis []*partition.Partition, cfg Config) *sampler {
	s := &sampler{ctx: ctx, pool: pool, r: r, plis: plis, cfg: cfg}
	for c := range plis {
		maxCluster := 0
		for i := 0; i < plis[c].Card(); i++ {
			maxCluster = max(maxCluster, len(plis[c].Cluster(i)))
		}
		s.runs = append(s.runs, run{
			col:        c,
			distance:   1,
			efficiency: 1, // optimistic until first measured
			exhausted:  maxCluster < 2,
		})
	}
	return s
}

// step executes the most promising run. It reports new non-FDs,
// comparisons, and whether any run was executed at all. The sampling
// pass shards across the run's pool (byte-identical merge, so the
// efficiency trajectory matches the serial pass at every shard size).
func (s *sampler) step(dst *sampling.NonFDSet) (newNonFDs, comparisons int, ran bool, err error) {
	best := -1
	for i := range s.runs {
		if s.runs[i].exhausted {
			continue
		}
		if best < 0 || s.runs[i].efficiency > s.runs[best].efficiency {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false, nil
	}
	ru := &s.runs[best]
	newN, comps, err := sampling.ClusterNeighborSampleSharded(s.ctx, s.pool, s.r, s.plis[ru.col], ru.distance, dst, s.cfg.ShardSize)
	if err != nil {
		return 0, 0, false, err
	}
	ru.distance++
	if comps == 0 {
		ru.exhausted = true
		ru.efficiency = 0
	} else {
		ru.efficiency = float64(newN) / float64(comps)
	}
	return newN, comps, true, nil
}

// phase runs sampling until the best run drops below the efficiency
// threshold (always executing at least one run).
func (s *sampler) phase(dst *sampling.NonFDSet, stats *Stats) error {
	first := true
	for {
		bestEff := 0.0
		for i := range s.runs {
			if !s.runs[i].exhausted && s.runs[i].efficiency > bestEff {
				bestEff = s.runs[i].efficiency
			}
		}
		if !first && bestEff < s.cfg.SamplingEfficiency {
			return nil
		}
		newN, comps, ran, err := s.step(dst)
		if err != nil {
			return err
		}
		if !ran {
			return nil
		}
		_ = newN
		stats.SamplingRounds++
		stats.Comparisons += comps
		first = false
	}
}

func (s *sampler) alive() bool {
	for i := range s.runs {
		if !s.runs[i].exhausted {
			return true
		}
	}
	return false
}

// Discover returns the left-reduced cover of the FDs holding on r.
func Discover(r *relation.Relation) []dep.FD {
	fds, _ := DiscoverWithConfig(r, DefaultConfig())
	return fds
}

// DiscoverWithConfig runs HyFD with explicit tuning and returns run
// statistics alongside the cover.
func DiscoverWithConfig(r *relation.Relation, cfg Config) ([]dep.FD, Stats) {
	//fdvet:ignore ctxflow ctx-less convenience wrapper; DiscoverCtx is the primary API until=PR20
	fds, stats, _ := DiscoverCtx(context.Background(), r, cfg)
	return fds, stats
}

// DiscoverCtx is DiscoverWithConfig with cooperative cancellation, checked
// between validation batches and sampling runs.
func DiscoverCtx(ctx context.Context, r *relation.Relation, cfg Config) ([]dep.FD, Stats, error) {
	fds, stats, _, err := discover(ctx, r, cfg)
	return fds, stats, err
}

// DiscoverRun runs HyFD and emits the algorithm-agnostic run report. On
// cancellation the partial report (with Cancelled set) is returned
// alongside ctx's error.
func DiscoverRun(ctx context.Context, r *relation.Relation, cfg Config) ([]dep.FD, *engine.RunStats, error) {
	fds, _, rs, err := discover(ctx, r, cfg)
	return fds, rs, err
}

func discover(ctx context.Context, r *relation.Relation, cfg Config) (retFDs []dep.FD, retStats Stats, retRS *engine.RunStats, retErr error) {
	cfg.fillDefaults()
	var stats Stats
	rs := engine.NewRunStats("hyfd", cfg.Workers)
	topkFlushed := false
	flushTopK := func() {
		if cfg.TopK == nil || topkFlushed {
			return
		}
		topkFlushed = true
		admitted, rejected, pruned := cfg.TopK.Counters()
		rs.Count("topk_admitted", admitted)
		rs.Count("topk_rejected", rejected)
		rs.Count("topk_pruned_branches", pruned)
	}
	defer func() {
		if rec := recover(); rec != nil {
			perr := engine.NewPanicError("hyfd", rec)
			flushTopK()
			rs.Finish(perr)
			var partial []dep.FD
			if cfg.TopK != nil {
				// Heap entries were each individually validated: a sound
				// partial top-k even after a panic.
				partial = cfg.TopK.FDs()
				rs.FDs = int64(len(partial))
			}
			retFDs, retStats, retRS, retErr = partial, stats, rs, perr
		}
	}()
	n := r.NumCols()
	if n == 0 {
		rs.Finish(nil)
		return nil, stats, rs, nil
	}
	pool := engine.NewPoolRetry(cfg.Workers, engine.RetryPolicy{Max: cfg.Retries})

	if err := ctx.Err(); err != nil {
		rs.Finish(err)
		return nil, stats, rs, err
	}
	cache0 := cfg.Cache.Stats()
	defer func() {
		delta := cfg.Cache.Stats().Delta(cache0)
		rs.CacheHits += delta.Hits
		rs.CacheMisses += delta.Misses
		rs.CacheEvictions += delta.Evictions
	}()
	stop := rs.Phase("sample")
	plis, built, err := partition.NewKernels(pool, cfg.ShardSize, cfg.Cache).Singles(ctx, r.Cols, r.Cards, cfg.Budget)
	rs.PartitionsBuilt += int64(built)
	if err != nil {
		stop()
		pool.FoldRetryStats(rs)
		pool.FoldShardStats(rs)
		rs.Finish(err)
		return nil, stats, rs, err
	}
	if cfg.Budget.Exhausted() {
		rs.Degrade(cfg.Budget.Reason())
	}
	v := validate.New(r)
	v.MaxViolations = cfg.MaxViolations
	approx := cfg.MaxViolations > 0
	full := bitset.Full(n)
	smp := newSampler(ctx, pool, r, plis, cfg)

	var tree *fdtree.Tree
	var nonFDs *sampling.NonFDSet
	startLevel := 1
	if lf := resumeLevel(cfg.Resume); lf != nil {
		// Continue a checkpointed run: the restored tree, non-FD set and
		// sampler runs are the search state; root validation and the
		// initial sampling already happened, so the run re-enters the level
		// loop at the cursor with cumulative counters.
		tree = cfg.Resume.Tree.Restore()
		nonFDs = cfg.Resume.NonFDs.Restore()
		if nonFDs == nil {
			nonFDs = sampling.NewNonFDSet(n)
		}
		cfg.Resume.Stats.Apply(rs)
		v.Validations = int(lf.Validations)
		v.Invalidated = int(lf.Invalidated)
		v.RowsScanned = int(lf.RowsScannedV)
		v.ClustersRefined = int(lf.ClustersRefined)
		stats.SamplingRounds = int(lf.SamplingRounds)
		stats.Comparisons = int(lf.Comparisons)
		stats.Levels = int(lf.Level) - 1
		rs.RowsScanned = lf.RowsScanned
		rs.PartitionsBuilt = lf.PartitionsBuilt
		startLevel = int(lf.Level)
		for i := range smp.runs {
			if i < len(lf.Sampler) {
				rec := lf.Sampler[i]
				smp.runs[i].distance = int(rec.Distance)
				smp.runs[i].efficiency = rec.Efficiency
				smp.runs[i].exhausted = rec.Exhausted
			}
		}
		runstate.WarmCache(ctx, cfg.Cache, cfg.Resume.Manifest, r.Cols, r.Cards)
		stop()
	} else {
		nonFDs = sampling.NewNonFDSet(n)
		tree = fdtree.NewWithFullRHS(n)

		// Root validation finds the constant columns and seeds non-FDs.
		// Approximate runs skip sampling entirely: one exact violating pair
		// would refute an FD the g3 bound still admits, so the tree may only
		// specialize from approximate validation outcomes.
		rootWitness := nonFDs
		if approx {
			rootWitness = nil
		}
		rootValid := v.EmptyLHS(full, rootWitness)

		if !approx {
			// Initial sampling: one distance-1 run per column, sharded
			// across the run's pool.
			for c := 0; c < n; c++ {
				newN, comps, err := sampling.ClusterNeighborSampleSharded(ctx, pool, r, plis[c], 1, nonFDs, cfg.ShardSize)
				if err != nil {
					stop()
					pool.FoldRetryStats(rs)
					pool.FoldShardStats(rs)
					rs.Finish(err)
					return nil, stats, rs, err
				}
				_ = newN
				smp.runs[c].distance = 2
				stats.SamplingRounds++
				stats.Comparisons += comps
			}
		}
		stop()
		stop = rs.Phase("induct")
		inductAll(tree, full, nonFDs.Sets())
		if approx {
			if invalid := full.Difference(rootValid); !invalid.IsEmpty() {
				tree.Induct(bitset.New(n), invalid)
			}
		}
		stop()
		if cfg.TopK != nil {
			rootScore := 0
			if r.NumRows() >= 2 {
				rootScore = r.NumRows()
			}
			for a := rootValid.Next(0); a >= 0; a = rootValid.Next(a + 1) {
				rhs := bitset.New(n)
				rhs.Add(a)
				cfg.TopK.Admit(dep.FD{LHS: bitset.New(n), RHS: rhs}, rootScore)
			}
		}
	}
	processed := nonFDs.Len()

	// tick snapshots the boundary before validation level vl: levels below
	// it are fully validated and inducted, and the sampler's per-column
	// runs carry the phase-switching state, so a resumed run re-enters the
	// loop exactly at vl. Capturing clones the whole FD-tree, so
	// off-interval boundaries are skipped unless forced (terminal,
	// loop-top cancellation).
	tick := func(vl int, force bool) {
		if cfg.Checkpoint == nil || (!force && !cfg.Checkpoint.Due()) {
			return
		}
		f := &runstate.LevelFrontier{
			Version:         1,
			Level:           int64(vl),
			Validations:     int64(v.Validations),
			Invalidated:     int64(v.Invalidated),
			RowsScannedV:    int64(v.RowsScanned),
			ClustersRefined: int64(v.ClustersRefined),
			Comparisons:     int64(stats.Comparisons),
			SamplingRounds:  int64(stats.SamplingRounds),
			RowsScanned:     rs.RowsScanned,
			PartitionsBuilt: rs.PartitionsBuilt,
		}
		for i := range smp.runs {
			f.Sampler = append(f.Sampler, runstate.SamplerRec{
				Distance:   int64(smp.runs[i].distance),
				Efficiency: smp.runs[i].efficiency,
				Exhausted:  smp.runs[i].exhausted,
			})
		}
		st := runstate.StatsSnapOf(rs)
		cd := cfg.Cache.Stats().Delta(cache0)
		st.CacheHits = rs.CacheHits + cd.Hits
		st.CacheMisses = rs.CacheMisses + cd.Misses
		st.CacheEvicts = rs.CacheEvictions + cd.Evictions
		_ = cfg.Checkpoint.Tick(&runstate.Snapshot{
			Stats:    st,
			Tree:     runstate.TreeSnapOf(tree),
			NonFDs:   runstate.NonFDSnapOf(nonFDs, n),
			TopK:     runstate.TopKSnapOf(cfg.TopK),
			Manifest: runstate.ManifestOf(cfg.Cache, manifestMax),
			Frontier: runstate.FrontierSnap{Version: 1, Level: f},
		})
	}

	finish := func(err error) ([]dep.FD, Stats, *engine.RunStats, error) {
		stats.Validations = v.Validations
		stats.Invalidated = v.Invalidated
		stats.NonFDs = nonFDs.Len()
		rs.CandidatesValidated = int64(v.Validations)
		rs.Invalidated = int64(v.Invalidated)
		rs.RowsScanned += int64(v.RowsScanned) + 2*int64(stats.Comparisons)
		rs.PartitionsRefined += int64(v.ClustersRefined)
		rs.NonFDs = int64(stats.NonFDs)
		rs.Levels = int64(stats.Levels)
		rs.Count("sampling_rounds", int64(stats.SamplingRounds))
		rs.Count("sampling_comparisons", int64(stats.Comparisons))
		flushTopK()
		pool.FoldRetryStats(rs)
		pool.FoldShardStats(rs)
		rs.Finish(err)
		if cfg.TopK != nil {
			// The heap's FDs were each individually validated and minimal
			// on the data, so this stands as a sound (partial, under err)
			// top-k in ranking order.
			fds := cfg.TopK.FDs()
			stats.FDs = len(fds)
			rs.FDs = int64(stats.FDs)
			return fds, stats, rs, err
		}
		return nil, stats, rs, err
	}

	for vl := startLevel; vl <= tree.MaxLevel(); vl++ {
		if err := ctx.Err(); err != nil {
			// Level vl is untouched, so this is still a boundary: park
			// it for the final Flush and Ctrl-C loses nothing.
			tick(vl, true)
			return finish(err)
		}
		tick(vl, false)
		candidates := tree.NodesAtLevel(vl)
		stats.Levels++
		stop = rs.Phase("validate")
		validations, invalidated, invalids, err := validateLevel(ctx, pool, r, plis, candidates, v, nonFDs, &cfg)
		stop()
		if err != nil {
			return finish(err)
		}

		stop = rs.Phase("induct")
		inductAll(tree, full, nonFDs.Sets()[processed:])
		// Approximate runs specialize from the validation outcomes instead
		// of witness pairs: lhs → a failing the g3 bound fails for every
		// generalization too (monotonicity), which is exactly Induct's
		// removal semantics.
		for _, li := range invalids {
			tree.Induct(li.lhs, li.invalid)
		}
		stop()
		processed = nonFDs.Len()

		// Switch to sampling when the level went badly and the sampler can
		// still contribute; its non-FDs prune the deeper levels.
		if !approx && validations > 0 &&
			float64(invalidated) > cfg.InvalidSwitchRatio*float64(validations) &&
			smp.alive() {
			stop = rs.Phase("sample")
			if err := smp.phase(nonFDs, &stats); err != nil {
				stop()
				return finish(err)
			}
			stop()
			stop = rs.Phase("induct")
			inductAll(tree, full, nonFDs.Sets()[processed:])
			stop()
			processed = nonFDs.Len()
		}
	}

	if err := ctx.Err(); err != nil {
		return finish(err)
	}
	// Terminal boundary: the cursor is past every tree level, so resuming a
	// post-completion snapshot replays no validation and re-emits the same
	// cover.
	tick(tree.MaxLevel()+1, true)
	if cfg.TopK != nil {
		return finish(nil) // the collector's FDs, in ranking order
	}
	fds := dep.SplitRHS(tree.FDs())
	dep.Sort(fds)
	stats.FDs = len(fds)
	_, _, _, _ = finish(nil)
	rs.FDs = int64(stats.FDs)
	return fds, stats, rs, nil
}

// resumeLevel extracts a snapshot's level frontier, nil when the run
// starts cold or the snapshot belongs to another algorithm family.
func resumeLevel(s *runstate.Snapshot) *runstate.LevelFrontier {
	if s == nil || s.Frontier.Level == nil || s.Tree == nil {
		return nil
	}
	return s.Frontier.Level
}

// levelInvalid records one approximate invalidation: every RHS attribute
// of invalid failed the g3 bound at lhs, refuting lhs → a and (by
// monotonicity) every generalization.
type levelInvalid struct {
	lhs     bitset.Set
	invalid bitset.Set
}

// validateNode validates one FD-node: the fused top-k bound check and
// possible skip, the validator call, heap admissions of validated FDs,
// and — on approximate runs — the invalid RHS set for post-level
// induction. Safe to run concurrently for distinct nodes.
func validateNode(node *fdtree.Node, n int, plis []*partition.Partition, v *validate.Validator, nonFDs *sampling.NonFDSet, cfg *Config) (levelInvalid, bool) {
	lhs := node.Path(n)
	a := cheapestAttr(lhs, plis)
	if cfg.TopK != nil {
		// ‖π_lhs‖ — and the score of every FD specializing lhs — is at
		// most the smallest single-attribute partition size over lhs.
		if cfg.TopK.Prunable(plis[a].Size()) {
			node.Pruned = true
			return levelInvalid{}, false
		}
	}
	start := bitset.New(n)
	start.Add(a)
	valid := v.FD(lhs, node.RHS, plis[a], start, nonFDs)
	if cfg.TopK != nil && !valid.IsEmpty() {
		score := v.LastSize
		for b := valid.Next(0); b >= 0; b = valid.Next(b + 1) {
			rhs := bitset.New(n)
			rhs.Add(b)
			cfg.TopK.Admit(dep.FD{LHS: lhs, RHS: rhs}, score)
		}
	}
	if cfg.MaxViolations > 0 {
		if inv := node.RHS.Difference(valid); !inv.IsEmpty() {
			return levelInvalid{lhs: lhs, invalid: inv}, true
		}
	}
	return levelInvalid{}, false
}

// validateLevel validates one level's FD-nodes against refinements of the
// single-attribute partitions, fanning out over the pool when it is wider
// than one worker: each worker owns a validator and a local non-FD
// buffer, merged into v and nonFDs afterwards (even on cancellation, so
// partial runs report honestly). It returns the level's validation and
// invalidation counts — the inputs of the phase-switching heuristic —
// plus, on approximate runs, the per-node invalid sets in candidate order
// so induction stays deterministic for any worker count.
func validateLevel(ctx context.Context, pool *engine.Pool, r *relation.Relation, plis []*partition.Partition, candidates []*fdtree.Node, v *validate.Validator, nonFDs *sampling.NonFDSet, cfg *Config) (validations, invalidated int, invalids []levelInvalid, err error) {
	n := r.NumCols()
	approx := cfg.MaxViolations > 0
	witness := nonFDs
	if approx {
		witness = nil
	}
	workers := pool.Workers()
	if workers < 2 || len(candidates) < 4*workers {
		snap := v.Snapshot()
		for i, node := range candidates {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					validations, invalidated = v.Since(snap)
					return validations, invalidated, invalids, err
				}
			}
			if !node.IsFDNode() {
				continue
			}
			if li, ok := validateNode(node, n, plis, v, witness, cfg); ok {
				invalids = append(invalids, li)
			}
		}
		validations, invalidated = v.Since(snap)
		return validations, invalidated, invalids, nil
	}

	locals := make([]*sampling.NonFDSet, workers)
	validators := make([]*validate.Validator, workers)
	for w := 0; w < workers; w++ {
		locals[w] = sampling.NewNonFDSet(n)
		validators[w] = validate.New(r)
		validators[w].MaxViolations = cfg.MaxViolations
	}
	slots := make([]levelInvalid, len(candidates))
	found := make([]bool, len(candidates))
	err = pool.Run(ctx, len(candidates), func(w, i int) {
		node := candidates[i]
		if !node.IsFDNode() {
			return
		}
		local := locals[w]
		if approx {
			local = nil
		}
		slots[i], found[i] = validateNode(node, n, plis, validators[w], local, cfg)
	})
	for w := 0; w < workers; w++ {
		validations += validators[w].Validations
		invalidated += validators[w].Invalidated
		v.Validations += validators[w].Validations
		v.Invalidated += validators[w].Invalidated
		v.RowsScanned += validators[w].RowsScanned
		v.ClustersRefined += validators[w].ClustersRefined
		for _, x := range locals[w].Sets() {
			nonFDs.Add(x)
		}
	}
	for i, ok := range found {
		if ok {
			invalids = append(invalids, slots[i])
		}
	}
	return validations, invalidated, invalids, err
}

// inductAll sorts the given agree sets descending and inducts each.
func inductAll(tree *fdtree.Tree, full bitset.Set, sets []bitset.Set) {
	sorted := append([]bitset.Set(nil), sets...)
	sampling.SortSetsDescending(sorted)
	for _, x := range sorted {
		tree.Induct(x, full.Difference(x))
	}
}

// cheapestAttr picks the LHS attribute with the smallest partition size
// ‖π_A‖ (Algorithm 6, line 16).
func cheapestAttr(lhs bitset.Set, plis []*partition.Partition) int {
	best, bestSize := -1, -1
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		size := plis[a].Size()
		if best < 0 || size < bestSize {
			best, bestSize = a, size
		}
	}
	return best
}
