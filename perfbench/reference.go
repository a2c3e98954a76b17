package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	dhyfd "repro"
)

// refReport is the reference output of one workload input, computed in
// a process of its own with the workload's independent algorithm.
type refReport struct {
	Algorithm string `json:"algorithm"`
	// Digest is the SHA-256 of the op-shaped rendering every timed op
	// must reproduce byte for byte; CoverSHA256 that of the sorted cover
	// alone.
	Digest       string                  `json:"digest"`
	CoverSHA256  string                  `json:"cover_sha256"`
	FDs          int                     `json:"fds"`
	CanonicalFDs int                     `json:"canonical_fds"`
	Totals       dhyfd.DatasetRedundancy `json:"totals"`

	// The reference computation's own layer figures. The traced run
	// reports them for the layers the workload's op does not call.
	Stats       dhyfd.RunStats  `json:"stats"`
	Rank        dhyfd.RankStats `json:"rank_stats"`
	TotalsStats dhyfd.RankStats `json:"totals_stats"`
	DiscoverS   float64         `json:"discover_s"`
	CanonicalS  float64         `json:"canonical_s"`
	RankS       float64         `json:"rank_s"`
	TotalsS     float64         `json:"totals_s"`
}

// reference discovers the cover with w.reference on one worker. On the
// profile workload, and on every workload when traced, it then computes
// the canonical cover, ranking and totals of that cover, each with a
// run-private partition cache, so the traced run has cover and ranking
// figures for every input.
func reference(ctx context.Context, w workload, csvBytes []byte, traced bool) (refReport, error) {
	rel, err := dhyfd.ReadCSV(bytes.NewReader(csvBytes), dhyfd.Options{})
	if err != nil {
		return refReport{}, fmt.Errorf("read csv: %w", err)
	}
	t := time.Now()
	res, err := dhyfd.Discover(ctx, rel, dhyfd.WithAlgorithm(w.reference), dhyfd.WithWorkers(1))
	if err != nil {
		return refReport{}, fmt.Errorf("reference discover: %w", err)
	}
	out := outcome{fds: res.FDs, stats: res.Stats, discover: time.Since(t)}
	if w.profile || traced {
		if err := profileCover(ctx, rel, &out, nil, -1, 0, dhyfd.WithWorkers(1)); err != nil {
			return refReport{}, fmt.Errorf("reference pipeline: %w", err)
		}
	}
	return refReport{
		Algorithm:    w.reference.String(),
		Digest:       digest(render(w.profile, rel.Names, out)),
		CoverSHA256:  digest(render(false, rel.Names, out)),
		FDs:          len(out.fds),
		CanonicalFDs: len(out.canonical),
		Totals:       out.totals,
		Stats:        out.stats,
		Rank:         out.rankStats,
		TotalsStats:  out.totalsStats,
		DiscoverS:    out.discover.Seconds(),
		CanonicalS:   out.canonicalTime.Seconds(),
		RankS:        out.rankTime.Seconds(),
		TotalsS:      out.totalsTime.Seconds(),
	}, nil
}
