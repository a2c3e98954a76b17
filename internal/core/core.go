// Package core implements DHyFD, the dynamic hybrid FD discovery algorithm
// that is the paper's primary contribution (Section IV).
//
// DHyFD follows the column-based approach over an extended FD-tree but
// uses a dynamic data manager (DDM) as a row-based technique whenever many
// FDs are likely to be valid. The DDM maintains an array of stripped
// partitions rooted at the current controlled level of the tree; node ids
// index that array, so validating the FDs of deeper levels refines an
// already-computed partition instead of starting from single-attribute
// partitions every time (HyFD's behaviour).
//
// The decision to spend memory on refreshed partitions is taken per
// validation level by the efficiency–inefficiency ratio: efficiency is the
// fraction of the level's FDs that turned out valid; inefficiency is the
// fraction of reusable nodes (validated nodes with live children) over the
// FDs still waiting at higher levels. A high ratio means validated
// partitions will be shared by many descendants, so refinement pays off
// (Section IV-G; the experiments of Figure 6 fix the threshold at 3).
//
// Sampling happens exactly once, before the main loop (sorted-neighborhood
// pair selection over the single-attribute partitions), and every FD
// validation doubles as further sampling: witness pairs of invalid FDs
// are genuine non-FDs fed back into synergized induction.
//
// Both validation hot paths run on the shared engine.Pool: per-level
// candidate validation fans out over per-worker validators, and DDM
// refreshes batch their partition refinements through
// partition.Kernels.RefineAll. Workers: 1 keeps the paper's serial
// behaviour.
package core

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/fdtree"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/runstate"
	"repro/internal/sampling"
	"repro/internal/validate"
)

// DefaultRatio is the paper's tuned efficiency–inefficiency threshold
// (Figure 6).
const DefaultRatio = 3.0

// ddm is the dynamic data manager: pre-computed single-attribute stripped
// partitions plus one array of dynamic partitions per controlled-level
// epoch. Node ids below NumCols index singles; ids >= NumCols index the
// dynamic array, valid only while the node's epoch matches (stale ids are
// the paper's "inconsistent" ids and fall back to singles).
type ddm struct {
	r       *relation.Relation
	singles []*partition.Partition
	epoch   int32
	slots   []dynPartition
	budget  *partition.Budget
	cache   *partition.Cache
	kern    *partition.Kernels
}

type dynPartition struct {
	part  *partition.Partition
	attrs bitset.Set
}

func newDDM(ctx context.Context, h *runstate.Harness, r *relation.Relation) (*ddm, int, error) {
	m := &ddm{
		r:      r,
		epoch:  1,
		budget: h.Budget,
		cache:  h.Cache,
		kern:   partition.NewKernels(h.Pool, h.ShardSize, h.Cache),
	}
	singles, built, err := m.kern.Singles(ctx, r.Cols, r.Cards, h.Budget)
	m.singles = singles
	return m, built, err
}

// partitionFor returns a stripped partition π_X′ with X′ ⊆ lhs for the
// node, preferring the node's dynamic partition when its id is consistent.
// Nodes with default or stale ids get the cheapest single-attribute
// partition of their path (Algorithm 6, lines 15–16) and their id is reset
// accordingly.
func (m *ddm) partitionFor(node *fdtree.Node, lhs bitset.Set) (*partition.Partition, bitset.Set) {
	n := len(m.singles)
	if node.ID >= n && node.Epoch == m.epoch {
		slot := m.slots[node.ID-n]
		if slot.attrs.IsSubsetOf(lhs) {
			return slot.part, slot.attrs
		}
	}
	best, bestSize := -1, -1
	for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
		if size := m.singles[a].Size(); best < 0 || size < bestSize {
			best, bestSize = a, size
		}
	}
	node.ID, node.Epoch = best, 0
	attrs := bitset.New(n)
	attrs.Add(best)
	return m.singles[best], attrs
}

// update implements Algorithm 3: a new dynamic array is built from the
// reusable nodes at the new controlled level. Each node's partition starts
// from its consistent dynamic partition (or its own singleton) and is
// refined by the missing path attributes — refinements run as one
// Kernels.RefineAll on the run's worker pool, since the jobs are
// independent (and the pool's retry policy supervises them); the node
// then receives the new slot id and propagates it to its descendants. On
// cancellation the DDM is left untouched (the old epoch stays consistent)
// and ctx's error is returned.
func (m *ddm) update(ctx context.Context, reusables []*fdtree.Node) error {
	if err := faults.Hit(faults.DDMRefresh); err != nil {
		return err
	}
	n := len(m.singles)
	jobs := make([]partition.RefineJob, len(reusables))
	lhss := make([]bitset.Set, len(reusables))
	for k, node := range reusables {
		lhs := node.Path(n)
		lhss[k] = lhs
		var p *partition.Partition
		var attrs bitset.Set
		if node.ID >= n && node.Epoch == m.epoch {
			slot := m.slots[node.ID-n]
			if slot.attrs.IsSubsetOf(lhs) {
				p, attrs = slot.part, slot.attrs
			}
		}
		if p == nil {
			// No consistent slot: prefer the longest cached prefix of
			// the path over restarting from a single.
			if cp, cattrs := m.cache.LongestPrefix(lhs); cp != nil {
				p, attrs = cp, cattrs
			} else {
				a := int(node.Attr)
				p, attrs = m.singles[a], bitset.FromAttrs(n, a)
			}
		}
		job := partition.RefineJob{Part: p}
		for b := lhs.Next(0); b >= 0; b = lhs.Next(b + 1) {
			if attrs.Contains(b) {
				continue
			}
			job.Cols = append(job.Cols, m.r.Cols[b])
			job.Cards = append(job.Cards, m.r.Cards[b])
		}
		jobs[k] = job
	}
	parts, err := m.kern.RefineAll(ctx, jobs)
	if err != nil {
		return err
	}
	m.epoch++
	newSlots := make([]dynPartition, 0, len(reusables))
	for k, node := range reusables {
		node.ID = n + len(newSlots)
		node.Epoch = m.epoch
		newSlots = append(newSlots, dynPartition{part: parts[k], attrs: lhss[k]})
		fdtree.PropagateID(node)
		m.budget.Charge(parts[k])
		m.cache.Put(lhss[k], parts[k])
	}
	// The replaced epoch's partitions are garbage now; return their bytes.
	// A reused (unrefined) slot aliases its old partition, so the charge
	// above and this release net out for it.
	for _, s := range m.slots {
		m.budget.Release(s.part)
	}
	m.slots = newSlots
	return nil
}

// rows returns Σ‖π‖ over the dynamic array, the memory proxy of Figure 7.
func (m *ddm) rows() int {
	total := 0
	for _, s := range m.slots {
		total += s.part.Size()
	}
	return total
}

// Run discovers the left-reduced cover of the FDs holding on r with DHyFD
// under env. ratio is the efficiency–inefficiency threshold above which
// the DDM refreshes its partitions (Algorithm 6, line 26); 0 selects
// DefaultRatio, and a very large ratio disables refreshes entirely, which
// degenerates DHyFD into a validate-from-singletons hybrid.
//
// Validation of distinct FD-nodes is independent (the DDM is read-only
// during a level), so env.Workers parallelizes each level's candidates
// and the DDM refreshes — an extension beyond the paper's single-threaded
// implementation; induction stays sequential. On budget exhaustion DHyFD
// stops refreshing the DDM (validation continues from the partitions
// already held, which keeps the cover complete and sound) and flags the
// report Degraded. A positive env.MaxViolations disables pair sampling:
// one exact violating pair must not refute an approximately valid FD, so
// the tree specializes from validation outcomes instead. env.Checkpoint
// snapshots the FD-tree, non-FD set and level cursor at every
// validation-level boundary; on env.Resume the DDM is rebuilt cold —
// restored node ids fall back to single-attribute partitions, slower but
// the same cover. On cancellation the partial report (Cancelled set) is
// returned alongside ctx's error.
func Run(ctx context.Context, r *relation.Relation, env runstate.Env, ratio float64) ([]dep.FD, *engine.RunStats, error) {
	if ratio == 0 {
		ratio = DefaultRatio
	}
	h := env.Start("dhyfd")
	return h.Run(func() ([]dep.FD, error) { return discover(ctx, r, h, ratio) })
}

func discover(ctx context.Context, r *relation.Relation, h *runstate.Harness, ratio float64) ([]dep.FD, error) {
	rs := h.RS
	n := r.NumCols()
	if n == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The DHyFD-specific measures, reported as RunStats counters.
	var initialNonFDs, comparisons, levels, refreshes, peakDynRows, peakDynCount int
	stop := rs.Phase("sample")
	m, built, err := newDDM(ctx, h, r)
	rs.PartitionsBuilt += int64(built)
	if err != nil {
		stop()
		return nil, err
	}
	if h.Budget.Exhausted() {
		rs.Degrade(h.Budget.Reason() + "; DDM refreshes disabled")
	}
	v := validate.New(r)
	v.MaxViolations = h.MaxViolations
	approx := h.MaxViolations > 0
	full := bitset.Full(n)

	var tree *fdtree.Tree
	var nonFDs *sampling.NonFDSet
	var numFDs int
	startLevel := 1
	if lf := resumeLevel(h.Resume); lf != nil {
		// Continue a checkpointed run: the restored tree and non-FD set are
		// the search state proper; sampling and root validation already
		// happened, so the run re-enters the level loop at the cursor. The
		// validator's exported counters and the measures are assigned from
		// the snapshot — finish() reads them, so the resumed report is
		// cumulative.
		tree = h.Resume.Tree.Restore()
		nonFDs = h.Resume.NonFDs.Restore()
		if nonFDs == nil {
			nonFDs = sampling.NewNonFDSet(n)
		}
		v.Validations = int(lf.Validations)
		v.Invalidated = int(lf.Invalidated)
		v.RowsScanned = int(lf.RowsScannedV)
		v.ClustersRefined = int(lf.ClustersRefined)
		initialNonFDs = int(lf.InitialNonFDs)
		comparisons = int(lf.Comparisons)
		levels = int(lf.Level) - 1
		refreshes = int(lf.Refinements)
		peakDynRows = int(lf.PeakDynRows)
		peakDynCount = int(lf.PeakDynCount)
		rs.RowsScanned = lf.RowsScanned
		rs.PartitionsBuilt = lf.PartitionsBuilt
		numFDs = int(lf.NumFDs)
		startLevel = int(lf.Level)
		h.Warm(ctx, r)
		stop()
	} else {
		tree = fdtree.NewWithFullRHS(n)
		tree.ControlledLevel = 1

		// One-shot sampling plus root validation (Algorithm 6, lines 5–6).
		// Approximate runs skip sampling entirely: one exact violating pair
		// would refute an FD the g3 bound still admits, so the tree may only
		// specialize from approximate validation outcomes.
		nonFDs = sampling.NewNonFDSet(n)
		rootWitness := nonFDs
		if approx {
			rootWitness = nil
		} else {
			for c := 0; c < n; c++ {
				_, comps, err := sampling.ClusterNeighborSampleSharded(ctx, h.Pool, r, m.singles[c], 1, nonFDs, h.ShardSize)
				if err != nil {
					stop()
					return nil, err
				}
				comparisons += comps
			}
			rs.RowsScanned += 2 * int64(comparisons)
		}
		rootValid := v.EmptyLHS(full, rootWitness)
		initialNonFDs = nonFDs.Len()
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

		// The surviving root RHS attributes are the validated FDs ∅ → A.
		numFDs = tree.Root().RHSCount()
	}
	processed := nonFDs.Len()

	// tick snapshots the boundary before validation level vl: levels below
	// it are fully validated and inducted into the tree, so a resumed run
	// re-enters the loop exactly at vl.
	tick := func(vl int, force bool) {
		h.Tick(force, func() *runstate.Snapshot {
			return &runstate.Snapshot{
				Tree:   runstate.TreeSnapOf(tree),
				NonFDs: runstate.NonFDSnapOf(nonFDs, n),
				Frontier: runstate.FrontierSnap{Level: &runstate.LevelFrontier{
					Version:         1,
					Level:           int64(vl),
					NumFDs:          int64(numFDs),
					Validations:     int64(v.Validations),
					Invalidated:     int64(v.Invalidated),
					RowsScannedV:    int64(v.RowsScanned),
					ClustersRefined: int64(v.ClustersRefined),
					InitialNonFDs:   int64(initialNonFDs),
					Comparisons:     int64(comparisons),
					Refinements:     int64(refreshes),
					PeakDynRows:     int64(peakDynRows),
					PeakDynCount:    int64(peakDynCount),
					RowsScanned:     rs.RowsScanned,
					PartitionsBuilt: rs.PartitionsBuilt,
				}},
			}
		})
	}

	// finish folds the validator and the DHyFD measures into the report.
	finish := func(err error) error {
		rs.CandidatesValidated = int64(v.Validations)
		rs.Invalidated = int64(v.Invalidated)
		rs.RowsScanned += int64(v.RowsScanned)
		rs.PartitionsRefined += int64(v.ClustersRefined)
		rs.NonFDs = int64(nonFDs.Len())
		rs.Levels = int64(levels)
		rs.Count("initial_non_fds", int64(initialNonFDs))
		rs.Count("sampling_comparisons", int64(comparisons))
		rs.Count("ddm_refreshes", int64(refreshes))
		rs.Count("peak_dyn_partitions", int64(peakDynCount))
		rs.Count("peak_dyn_rows", int64(peakDynRows))
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

		total := 0
		for _, node := range candidates {
			total += node.RHSCount()
		}
		stop = rs.Phase("validate")
		invalids, err := validateLevel(ctx, h, r, m, candidates, v, nonFDs)
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

		numNewFDs := 0
		for _, node := range candidates {
			if node.Pruned {
				continue
			}
			numNewFDs += node.RHSCount()
		}
		numFDs += numNewFDs

		var reusables []*fdtree.Node
		for _, node := range candidates {
			if !node.Pruned && node.HasLiveChildren() {
				reusables = append(reusables, node)
			}
		}

		// Efficiency–inefficiency decision (Algorithm 6, lines 21–27).
		higher := tree.CountFDs() - numFDs
		if vl > 1 && total > 0 && len(reusables) > 0 && higher > 0 {
			if EfficiencyInefficiencyRatio(numNewFDs, total, len(reusables), higher) > ratio {
				// Refreshing trades memory for time; once the budget is
				// exhausted the trade is off — validation continues from
				// the partitions already held, which stays sound.
				if h.Budget.Exhausted() {
					rs.Degrade(h.Budget.Reason() + "; DDM refreshes disabled")
					continue
				}
				tree.ControlledLevel = vl
				stop = rs.Phase("refine")
				err := m.update(ctx, reusables)
				stop()
				if err != nil {
					return nil, finish(err)
				}
				refreshes++
				rs.PartitionsBuilt += int64(len(reusables))
				peakDynRows = max(peakDynRows, m.rows())
				peakDynCount = max(peakDynCount, len(m.slots))
			}
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

// EfficiencyInefficiencyRatio computes the paper's Section IV-G measure:
// efficiency — valid FDs over all FDs at the validation level — divided by
// inefficiency — reusable nodes over the FDs residing in higher levels.
// Example 5 of the paper: 1 valid of 1 FD with 2 reusable nodes over 5
// pending FDs gives (1/1)/(2/5) = 2.5; 1 of 2 with 2 reusables over 3
// pending gives (1/2)/(2/3) = 0.75.
func EfficiencyInefficiencyRatio(validFDs, totalFDs, reusableNodes, higherFDs int) float64 {
	efficiency := float64(validFDs) / float64(totalFDs)
	inefficiency := float64(reusableNodes) / float64(higherFDs)
	return efficiency / inefficiency
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
// induction. Safe to run concurrently for distinct nodes (the collector
// is concurrent; the DDM is read-only during a level except for per-node
// id resets).
func validateNode(node *fdtree.Node, n int, m *ddm, v *validate.Validator, nonFDs *sampling.NonFDSet, env *runstate.Env) (levelInvalid, bool) {
	lhs := node.Path(n)
	if env.TopK != nil {
		// ‖π_lhs‖ — and the score of every FD specializing lhs — is at
		// most the smallest single-attribute partition size over lhs.
		bound := -1
		for a := lhs.Next(0); a >= 0; a = lhs.Next(a + 1) {
			if s := m.singles[a].Size(); bound < 0 || s < bound {
				bound = s
			}
		}
		if bound >= 0 && env.TopK.Prunable(bound) {
			node.Pruned = true
			return levelInvalid{}, false
		}
	}
	p, attrs := m.partitionFor(node, lhs)
	valid := v.FD(lhs, node.RHS, p, attrs, nonFDs)
	if env.TopK != nil && !valid.IsEmpty() {
		score := v.LastSize
		for a := valid.Next(0); a >= 0; a = valid.Next(a + 1) {
			rhs := bitset.New(n)
			rhs.Add(a)
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

// validateLevel validates the FD-nodes among candidates against their DDM
// partitions, collecting witness non-FDs (exact runs) or per-node invalid
// sets (approximate runs; returned in candidate order so induction stays
// deterministic for any worker count). With a pool wider than one the
// candidates fan out over engine.Pool workers: each worker owns a
// validator and a local non-FD buffer, merged into v and nonFDs after the
// level. The DDM is read-only during a level except for per-node id
// resets, which are safe because every node is processed by exactly one
// worker. Counters are merged even on cancellation so partial runs report
// honestly.
func validateLevel(ctx context.Context, h *runstate.Harness, r *relation.Relation, m *ddm, candidates []*fdtree.Node, v *validate.Validator, nonFDs *sampling.NonFDSet) ([]levelInvalid, error) {
	n := r.NumCols()
	env := &h.Env
	approx := env.MaxViolations > 0
	witness := nonFDs
	if approx {
		witness = nil
	}
	var invalids []levelInvalid
	workers := h.Pool.Workers()
	if workers < 2 || len(candidates) < 4*workers {
		for i, node := range candidates {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return invalids, err
				}
			}
			if !node.IsFDNode() {
				continue
			}
			if li, ok := validateNode(node, n, m, v, witness, env); ok {
				invalids = append(invalids, li)
			}
		}
		return invalids, nil
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
	err := h.Pool.Run(ctx, len(candidates), func(w, i int) {
		node := candidates[i]
		if !node.IsFDNode() {
			return
		}
		local := locals[w]
		if approx {
			local = nil
		}
		slots[i], found[i] = validateNode(node, n, m, validators[w], local, env)
	})
	for w := 0; w < workers; w++ {
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
	return invalids, err
}

// inductAll sorts agree sets descending by LHS size and inducts each
// (Algorithm 6, lines 7–8 and 19–20).
func inductAll(tree *fdtree.Tree, full bitset.Set, sets []bitset.Set) {
	sorted := append([]bitset.Set(nil), sets...)
	sampling.SortSetsDescending(sorted)
	for _, x := range sorted {
		tree.Induct(x, full.Difference(x))
	}
}
