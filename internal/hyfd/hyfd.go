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
// the shared engine.Pool when the run's Env.Workers is above one.
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
	"repro/internal/validate"
)

// The phase-switching heuristics, fixed at the values of the experiments.
const (
	// InvalidSwitchRatio: after a validation level, HyFD switches to
	// sampling when invalidated/validated exceeds this fraction.
	InvalidSwitchRatio = 0.01
	// SamplingEfficiency: a sampling phase keeps growing runs while the
	// best run yields at least this many new non-FDs per comparison.
	SamplingEfficiency = 0.01
)

// run is one sorted-neighborhood sampling run state for a column.
type run struct {
	col        int
	distance   int     // next window distance to execute
	efficiency float64 // of the last executed window
	exhausted  bool
}

type sampler struct {
	ctx       context.Context
	pool      *engine.Pool
	r         *relation.Relation
	plis      []*partition.Partition
	runs      []run
	shardSize int
	// minEfficiency is the phase threshold (SamplingEfficiency).
	minEfficiency float64
}

func newSampler(ctx context.Context, pool *engine.Pool, r *relation.Relation, plis []*partition.Partition, shardSize int, minEfficiency float64) *sampler {
	s := &sampler{ctx: ctx, pool: pool, r: r, plis: plis, shardSize: shardSize, minEfficiency: minEfficiency}
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
	newN, comps, err := sampling.ClusterNeighborSampleSharded(s.ctx, s.pool, s.r, s.plis[ru.col], ru.distance, dst, s.shardSize)
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
// threshold (always executing at least one run), reporting the runs
// executed and the tuple pairs they compared.
func (s *sampler) phase(dst *sampling.NonFDSet) (rounds, comparisons int, err error) {
	first := true
	for {
		bestEff := 0.0
		for i := range s.runs {
			if !s.runs[i].exhausted && s.runs[i].efficiency > bestEff {
				bestEff = s.runs[i].efficiency
			}
		}
		if !first && bestEff < s.minEfficiency {
			return rounds, comparisons, nil
		}
		_, comps, ran, err := s.step(dst)
		if err != nil {
			return rounds, comparisons, err
		}
		if !ran {
			return rounds, comparisons, nil
		}
		rounds++
		comparisons += comps
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

// Run discovers the left-reduced cover of the FDs holding on r with HyFD
// under env. env.Workers widens the validation phase only; sampling and
// induction are sequential either way. HyFD holds only the
// single-attribute partitions, so an exhausted env.Budget cannot change
// its behaviour — the run is flagged Degraded to tell the caller the
// budget could not be honoured — and it reads and publishes only those
// partitions through env.Cache. A positive env.MaxViolations disables
// sampling (exact violating pairs must not refute approximately valid
// FDs); the tree specializes from validation outcomes instead.
// env.Checkpoint snapshots the FD-tree, non-FD set, level cursor and
// per-column sampler runs at every validation-level boundary. On
// cancellation the partial report (Cancelled set) is returned alongside
// ctx's error.
func Run(ctx context.Context, r *relation.Relation, env runstate.Env) ([]dep.FD, *engine.RunStats, error) {
	h := env.Start("hyfd")
	return h.Run(func() ([]dep.FD, error) { return discover(ctx, r, h, InvalidSwitchRatio, SamplingEfficiency) })
}

// discover is HyFD under the phase-switching thresholds switchRatio and
// minEfficiency (InvalidSwitchRatio and SamplingEfficiency outside tests
// that push them to their extremes).

func discover(ctx context.Context, r *relation.Relation, h *runstate.Harness, switchRatio, minEfficiency float64) ([]dep.FD, error) {
	rs := h.RS
	n := r.NumCols()
	if n == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var samplingRounds, comparisons, levels int
	stop := rs.Phase("sample")
	plis, built, err := partition.NewKernels(h.Pool, h.ShardSize, h.Cache).Singles(ctx, r.Cols, r.Cards, h.Budget)
	rs.PartitionsBuilt += int64(built)
	if err != nil {
		stop()
		return nil, err
	}
	if h.Budget.Exhausted() {
		rs.Degrade(h.Budget.Reason())
	}
	v := validate.New(r)
	v.MaxViolations = h.MaxViolations
	approx := h.MaxViolations > 0
	full := bitset.Full(n)
	smp := newSampler(ctx, h.Pool, r, plis, h.ShardSize, minEfficiency)

	var tree *fdtree.Tree
	var nonFDs *sampling.NonFDSet
	startLevel := 1
	if lf := resumeLevel(h.Resume); lf != nil {
		// Continue a checkpointed run: the restored tree, non-FD set and
		// sampler runs are the search state; root validation and the
		// initial sampling already happened, so the run re-enters the level
		// loop at the cursor with cumulative counters.
		tree = h.Resume.Tree.Restore()
		nonFDs = h.Resume.NonFDs.Restore()
		if nonFDs == nil {
			nonFDs = sampling.NewNonFDSet(n)
		}
		v.Validations = int(lf.Validations)
		v.Invalidated = int(lf.Invalidated)
		v.RowsScanned = int(lf.RowsScannedV)
		v.ClustersRefined = int(lf.ClustersRefined)
		samplingRounds = int(lf.SamplingRounds)
		comparisons = int(lf.Comparisons)
		levels = int(lf.Level) - 1
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
		h.Warm(ctx, r)
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
				_, comps, err := sampling.ClusterNeighborSampleSharded(ctx, h.Pool, r, plis[c], 1, nonFDs, h.ShardSize)
				if err != nil {
					stop()
					return nil, err
				}
				smp.runs[c].distance = 2
				samplingRounds++
				comparisons += comps
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
		if h.TopK != nil {
			rootScore := 0
			if r.NumRows() >= 2 {
				rootScore = r.NumRows()
			}
			for a := rootValid.Next(0); a >= 0; a = rootValid.Next(a + 1) {
				rhs := bitset.New(n)
				rhs.Add(a)
				h.TopK.Admit(dep.FD{LHS: bitset.New(n), RHS: rhs}, rootScore)
			}
		}
	}
	processed := nonFDs.Len()

	// tick snapshots the boundary before validation level vl: levels below
	// it are fully validated and inducted, and the sampler's per-column
	// runs carry the phase-switching state, so a resumed run re-enters the
	// loop exactly at vl.
	tick := func(vl int, force bool) {
		h.Tick(force, func() *runstate.Snapshot {
			f := &runstate.LevelFrontier{
				Version:         1,
				Level:           int64(vl),
				Validations:     int64(v.Validations),
				Invalidated:     int64(v.Invalidated),
				RowsScannedV:    int64(v.RowsScanned),
				ClustersRefined: int64(v.ClustersRefined),
				Comparisons:     int64(comparisons),
				SamplingRounds:  int64(samplingRounds),
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
			return &runstate.Snapshot{
				Tree:     runstate.TreeSnapOf(tree),
				NonFDs:   runstate.NonFDSnapOf(nonFDs, n),
				Frontier: runstate.FrontierSnap{Level: f},
			}
		})
	}

	// finish folds the validator and the sampling measures into the report.
	finish := func(err error) error {
		rs.CandidatesValidated = int64(v.Validations)
		rs.Invalidated = int64(v.Invalidated)
		rs.RowsScanned += int64(v.RowsScanned) + 2*int64(comparisons)
		rs.PartitionsRefined += int64(v.ClustersRefined)
		rs.NonFDs = int64(nonFDs.Len())
		rs.Levels = int64(levels)
		rs.Count("sampling_rounds", int64(samplingRounds))
		rs.Count("sampling_comparisons", int64(comparisons))
		return err
	}

	for vl := startLevel; vl <= tree.MaxLevel(); vl++ {
		if err := ctx.Err(); err != nil {
			// Level vl is untouched, so this is still a boundary: park
			// it for the final Flush and Ctrl-C loses nothing.
			tick(vl, true)
			return nil, finish(err)
		}
		tick(vl, false)
		candidates := tree.NodesAtLevel(vl)
		levels++
		stop = rs.Phase("validate")
		validations, invalidated, invalids, err := validateLevel(ctx, h, r, plis, candidates, v, nonFDs)
		stop()
		if err != nil {
			return nil, finish(err)
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
			float64(invalidated) > switchRatio*float64(validations) &&
			smp.alive() {
			stop = rs.Phase("sample")
			rounds, comps, err := smp.phase(nonFDs)
			samplingRounds += rounds
			comparisons += comps
			stop()
			if err != nil {
				return nil, finish(err)
			}
			stop = rs.Phase("induct")
			inductAll(tree, full, nonFDs.Sets()[processed:])
			stop()
			processed = nonFDs.Len()
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, finish(err)
	}
	// Terminal boundary: the cursor is past every tree level, so resuming a
	// post-completion snapshot replays no validation and re-emits the same
	// cover.
	tick(tree.MaxLevel()+1, true)
	if h.TopK != nil {
		return nil, finish(nil) // the harness returns the collector's FDs
	}
	fds := dep.SplitRHS(tree.FDs())
	dep.Sort(fds)
	return fds, finish(nil)
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
func validateNode(node *fdtree.Node, n int, plis []*partition.Partition, v *validate.Validator, nonFDs *sampling.NonFDSet, env *runstate.Env) (levelInvalid, bool) {
	lhs := node.Path(n)
	a := cheapestAttr(lhs, plis)
	if env.TopK != nil {
		// ‖π_lhs‖ — and the score of every FD specializing lhs — is at
		// most the smallest single-attribute partition size over lhs.
		if env.TopK.Prunable(plis[a].Size()) {
			node.Pruned = true
			return levelInvalid{}, false
		}
	}
	start := bitset.New(n)
	start.Add(a)
	valid := v.FD(lhs, node.RHS, plis[a], start, nonFDs)
	if env.TopK != nil && !valid.IsEmpty() {
		score := v.LastSize
		for b := valid.Next(0); b >= 0; b = valid.Next(b + 1) {
			rhs := bitset.New(n)
			rhs.Add(b)
			env.TopK.Admit(dep.FD{LHS: lhs, RHS: rhs}, score)
		}
	}
	if env.MaxViolations > 0 {
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
func validateLevel(ctx context.Context, h *runstate.Harness, r *relation.Relation, plis []*partition.Partition, candidates []*fdtree.Node, v *validate.Validator, nonFDs *sampling.NonFDSet) (validations, invalidated int, invalids []levelInvalid, err error) {
	n := r.NumCols()
	env := &h.Env
	approx := env.MaxViolations > 0
	witness := nonFDs
	if approx {
		witness = nil
	}
	workers := h.Pool.Workers()
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
			if li, ok := validateNode(node, n, plis, v, witness, env); ok {
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
		validators[w].MaxViolations = env.MaxViolations
	}
	slots := make([]levelInvalid, len(candidates))
	found := make([]bool, len(candidates))
	err = h.Pool.Run(ctx, len(candidates), func(w, i int) {
		node := candidates[i]
		if !node.IsFDNode() {
			return
		}
		local := locals[w]
		if approx {
			local = nil
		}
		slots[i], found[i] = validateNode(node, n, plis, validators[w], local, env)
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
