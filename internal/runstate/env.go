package runstate

import (
	"context"

	"repro/internal/dep"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/topk"
)

// manifestMax caps how many PLI-cache keys a checkpoint snapshot records.
const manifestMax = 64

// Env is the run environment every discovery driver shares: the resources
// a run may use, the search modes that shape its result, and its
// durability. Every field's zero value switches its feature off, and a
// driver ignores the fields it has no use for. The knobs that belong to
// one algorithm — DHyFD's efficiency–inefficiency ratio, the FDEP variant
// — are the drivers' own parameters.
type Env struct {
	// Workers is the engine.Pool width of the run's parallel hot paths:
	// level validation, DDM refreshes, PLI products, sharded kernels and
	// the negative-cover scan. Values below 1 clamp to 1, the serial run.
	Workers int
	// ShardSize is the row-block size of the sharded kernels (PLI
	// bootstrap, sampling, negative cover). <= 0 selects
	// partition.DefaultShardSize.
	ShardSize int
	// Budget optionally bounds partition memory; each driver documents
	// what it gives up on exhaustion. Nil means unlimited.
	Budget *partition.Budget
	// Cache optionally shares stripped partitions across the run and
	// across runs over the same relation. Nil disables caching.
	Cache *partition.Cache
	// TopK, when non-nil, fuses redundancy-ranked top-k selection into
	// the search: validated FDs are offered to the collector scored by
	// ‖π_LHS‖ and branches that cannot beat its admission threshold are
	// pruned. The run returns the collector's FDs in ranking order
	// instead of the full cover.
	TopK *topk.Collector
	// MaxViolations relaxes validity to the g3-style bound: lhs → A
	// counts as valid while at most MaxViolations rows must be deleted
	// for it to hold exactly. 0 keeps exact discovery.
	MaxViolations int
	// Checkpoint, when non-nil, snapshots the driver's search frontier at
	// its boundaries so a killed run can resume. Nil disables durability.
	Checkpoint *Checkpointer
	// Resume, when non-nil, seeds the run from a snapshot the caller has
	// already fingerprint-matched.
	Resume *Snapshot
	// Retries bounds supervised re-runs of transiently failed pool items
	// (capped exponential backoff with full jitter). 0 disables retries.
	Retries int
}

// Harness is one driver run under an Env: the run report, the worker
// pool, and the prologue and epilogue every driver shares. Drivers read
// the environment through the embedded Env (Workers is clamped to >= 1).
type Harness struct {
	Env
	// RS is the run report the driver fills.
	RS *engine.RunStats
	// Pool is the run's one worker pool, honouring Env.Retries.
	Pool *engine.Pool

	cache0 partition.CacheStats
}

// Start opens a run of the named algorithm: it clamps the worker count,
// builds the pool, takes the cache-traffic baseline and, on resume, seeds
// the report with the snapshot's phases, elapsed time and cache bases.
func (e Env) Start(algorithm string) *Harness {
	e.Workers = max(e.Workers, 1)
	h := &Harness{
		Env:    e,
		RS:     engine.NewRunStats(algorithm, e.Workers),
		Pool:   engine.NewPoolRetry(e.Workers, engine.RetryPolicy{Max: e.Retries}),
		cache0: e.Cache.Stats(),
	}
	if e.Resume != nil {
		e.Resume.Stats.Apply(h.RS)
	}
	return h
}

// Run executes the driver body and closes the report on every exit path,
// a panic included: a panic becomes a *PanicError returned alongside the
// partial report. Under TopK the result is the collector's FDs — each was
// individually validated, so they stand as a sound (partial, on error)
// top-k in ranking order; otherwise it is body's cover, or nil on error.
func (h *Harness) Run(body func() ([]dep.FD, error)) (fds []dep.FD, rs *engine.RunStats, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			fds, rs, err = h.finish(nil, engine.NewPanicError(h.RS.Algorithm, rec))
		}
	}()
	return h.finish(body())
}

// finish is the shared epilogue: the top-k counters, the cache delta, the
// pool's retry and shard counters, then Finish.
func (h *Harness) finish(fds []dep.FD, err error) ([]dep.FD, *engine.RunStats, error) {
	rs := h.RS
	if h.TopK != nil {
		fds = h.TopK.FDs()
		admitted, rejected, pruned := h.TopK.Counters()
		rs.Count("topk_admitted", admitted)
		rs.Count("topk_rejected", rejected)
		rs.Count("topk_pruned_branches", pruned)
	} else if err != nil {
		fds = nil
	}
	rs.FDs = int64(len(fds))
	d := h.Cache.Stats().Delta(h.cache0)
	rs.CacheHits += d.Hits
	rs.CacheMisses += d.Misses
	rs.CacheEvictions += d.Evictions
	h.Pool.FoldRetryStats(rs)
	h.Pool.FoldShardStats(rs)
	rs.Finish(err)
	return fds, rs, err
}

// Warm rebuilds a resumed run's PLI-cache manifest into the cache; a
// no-op on a cold start.
func (h *Harness) Warm(ctx context.Context, r *relation.Relation) {
	if h.Resume != nil {
		WarmCache(ctx, h.Cache, h.Resume.Manifest, r.Cols, r.Cards)
	}
}

// Tick offers a search boundary to the checkpointer. Capturing a frontier
// clones the driver's live structures, so off-interval boundaries skip it
// unless forced (terminal, cancellation). capture builds the driver's own
// sections — frontier, FD-tree, non-FDs — and Tick adds the run report
// (with the cache traffic so far), the top-k heap and the cache manifest.
func (h *Harness) Tick(force bool, capture func() *Snapshot) {
	if h.Checkpoint == nil || (!force && !h.Checkpoint.Due()) {
		return
	}
	s := capture()
	s.Stats = StatsSnapOf(h.RS)
	d := h.Cache.Stats().Delta(h.cache0)
	s.Stats.CacheHits = h.RS.CacheHits + d.Hits
	s.Stats.CacheMisses = h.RS.CacheMisses + d.Misses
	s.Stats.CacheEvicts = h.RS.CacheEvictions + d.Evictions
	s.TopK = TopKSnapOf(h.TopK)
	s.Manifest = ManifestOf(h.Cache, manifestMax)
	s.Frontier.Version = 1
	_ = h.Checkpoint.Tick(s)
}
