package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	dhyfd "repro"
	"repro/internal/bitset"
	"repro/internal/fdtree"
	"repro/internal/partition"
	"repro/internal/sampling"
)

// Span op ids outside the timed operations.
const (
	opSetup = -1
	opProbe = -2
)

// opSample is one operation as the measuring process saw it. Times are
// seconds; the layer details are filled for every op but only read for
// traced ones.
type opSample struct {
	Warmup    bool    `json:"warmup,omitempty"`
	Traced    bool    `json:"traced,omitempty"`
	WallS     float64 `json:"wall_s"`
	DiscoverS float64 `json:"discover_s"`
	CPUS      float64 `json:"cpu_s"`
	StealS    float64 `json:"steal_s"`
	AllocMB   float64 `json:"alloc_mb"`
	Digest    string  `json:"digest"`
	Err       string  `json:"error,omitempty"`

	Stats        dhyfd.RunStats  `json:"stats"`
	Rank         dhyfd.RankStats `json:"rank_stats"`
	Totals       dhyfd.RankStats `json:"totals_stats"`
	CanonicalS   float64         `json:"canonical_s"`
	RankS        float64         `json:"rank_s"`
	TotalsS      float64         `json:"totals_s"`
	CanonicalFDs int             `json:"canonical_fds"`
}

// probeReport holds the kernel probes of a traced run: timed calls to
// exported layer functions outside the operation.
type probeReport struct {
	SinglesS       float64 `json:"singles_s"`
	InitialSampleS float64 `json:"initial_sample_s"`
	InductS        float64 `json:"induct_s"`
	// InductSource says which negative cover was inducted: the full
	// NegativeCover, or the InitialSample non-FDs on inputs too tall for
	// an all-pairs pass.
	InductSource string `json:"induct_source"`
	InductSets   int    `json:"induct_sets"`
	Nodes        int    `json:"nodes"`
	FDs          int    `json:"fds"`
}

// measureReport is what the measuring process hands back to the parent.
type measureReport struct {
	SetupS []float64 `json:"setup_s"`
	// SetupStealS is the steal time during each set-up sample.
	SetupStealS []float64    `json:"setup_steal_s"`
	Ops         []opSample   `json:"ops"`
	VmHWMKB     int64        `json:"vmhwm_kb"`
	Spans       []span       `json:"spans,omitempty"`
	Probe       *probeReport `json:"probe,omitempty"`
}

// opSetupBudget is how long set-up is timed again before each op (at
// least once).
const opSetupBudget = 20 * time.Millisecond

// Below this many rows the fdtree probe inducts the full all-pairs
// NegativeCover; above it, the InitialSample non-FDs.
const negativeCoverMaxRows = 2000

// measure runs in its own process, so that its VmHWM covers only the
// workload's set-up and operations. It times set-up from the CSV bytes,
// runs one warm-up op and then the closed loop: untraced for the whole
// run, or untraced for the first half and traced for the second when
// traced is set. Before every op it times set-up again.
func measure(ctx context.Context, w workload, csvBytes []byte, seconds float64, traced, smoke bool) (measureReport, error) {
	var rep measureReport
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	budget := time.Second / 2
	if smoke {
		budget = 0
	}
	rel, err := setup(csvBytes, tr, 5, budget, &rep)
	if err != nil {
		return rep, err
	}
	names := rel.Names

	minOps := 3
	if traced {
		minOps = 2
	}
	if smoke {
		minOps = 1
	}
	op := 0
	// loop runs ops until count have run and the next one, judged by the
	// last, would end after until.
	loop := func(until time.Time, traced bool, count int) error {
		var last time.Duration
		for n := 0; n < count || time.Now().Add(last).Before(until); n++ {
			// More set-up samples, spread over the run so that they see
			// the same host as the ops.
			if _, err := setup(csvBytes, tr, 1, opSetupBudget, &rep); err != nil {
				return err
			}
			s := timedOp(ctx, w, rel, names, tr, traced, op)
			rep.Ops = append(rep.Ops, s)
			last = time.Duration(s.WallS * float64(time.Second))
			op++
		}
		return nil
	}
	if err := loop(time.Time{}, false, 1); err != nil {
		return rep, err
	}
	rep.Ops[0].Warmup = true
	start := time.Now()
	total := time.Duration(seconds * float64(time.Second))
	if !traced {
		err = loop(start.Add(total), false, minOps)
	} else if err = loop(start.Add(total/2), false, minOps); err == nil {
		err = loop(start.Add(total), true, minOps)
	}
	if err != nil {
		return rep, err
	}
	rep.VmHWMKB = vmHWM()
	if traced {
		rep.Probe = probe(rel, tr)
		rep.Spans = tr.spans
	}
	return rep, nil
}

// setup times the one-off cost a user pays, CSV bytes to a ready
// Relation, at least minReps times and for at least budget; the last
// relation is the one the ops use.
func setup(csvBytes []byte, tr *tracer, minReps int, budget time.Duration, rep *measureReport) (*dhyfd.Relation, error) {
	const maxReps = 200
	var rel *dhyfd.Relation
	start := time.Now()
	for n := 0; n < maxReps && (n < minReps || time.Since(start) < budget); n++ {
		runtime.GC()
		t, steal0 := time.Now(), stealTime()
		sp := tr.begin("relation.ReadCSV", -1, opSetup)
		r, err := dhyfd.ReadCSV(bytes.NewReader(csvBytes), dhyfd.Options{})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("read csv: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t).Seconds())
		rep.SetupStealS = append(rep.SetupStealS, (stealTime() - steal0).Seconds())
		rel = r
	}
	return rel, nil
}

// timedOp runs one operation after a collection, so that every op starts
// from the same heap, and checks nothing: the digest of its rendered
// output goes back to the parent, which compares it with the reference.
func timedOp(ctx context.Context, w workload, rel *dhyfd.Relation, names []string, tr *tracer, traced bool, op int) opSample {
	if !traced {
		tr = nil
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, steal0 := cpuTime(), stealTime()
	out, err := runOp(ctx, w, rel, tr, op)
	cpu1, steal1 := cpuTime(), stealTime()
	runtime.ReadMemStats(&m1)
	s := opSample{
		Traced:       traced,
		WallS:        out.wall.Seconds(),
		DiscoverS:    out.discover.Seconds(),
		CPUS:         (cpu1 - cpu0).Seconds(),
		StealS:       (steal1 - steal0).Seconds(),
		AllocMB:      float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		Stats:        out.stats,
		Rank:         out.rankStats,
		Totals:       out.totalsStats,
		CanonicalS:   out.canonicalTime.Seconds(),
		RankS:        out.rankTime.Seconds(),
		TotalsS:      out.totalsTime.Seconds(),
		CanonicalFDs: len(out.canonical),
	}
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.Digest = digest(render(w.profile, names, out))
	return s
}

// probe times the kernels under the operation directly: every column's
// single-attribute PLI, the initial sample over them, and the induction
// of a negative cover into a fresh extended FD-tree.
func probe(rel *dhyfd.Relation, tr *tracer) *probeReport {
	p := &probeReport{}
	t := time.Now()
	sp := tr.begin("partition.Single", -1, opProbe)
	singles := make([]*partition.Partition, rel.NumCols())
	for c := range singles {
		singles[c] = partition.Single(rel.Cols[c], rel.Cards[c])
	}
	tr.end(sp)
	p.SinglesS = time.Since(t).Seconds()

	t = time.Now()
	sp = tr.begin("sampling.InitialSample", -1, opProbe)
	sample := sampling.InitialSample(rel, singles)
	tr.end(sp)
	p.InitialSampleS = time.Since(t).Seconds()

	neg := sample
	p.InductSource = "InitialSample"
	if rel.NumRows() <= negativeCoverMaxRows {
		sp = tr.begin("sampling.NegativeCover", -1, opProbe)
		neg = sampling.NegativeCover(rel)
		tr.end(sp)
		p.InductSource = "NegativeCover"
	}
	sets := append([]bitset.Set(nil), neg.Sets()...)
	sampling.SortSetsDescending(sets)
	n := rel.NumCols()
	full := bitset.Full(n)
	t = time.Now()
	sp = tr.begin("fdtree.Induct", -1, opProbe)
	tree := fdtree.NewWithFullRHS(n)
	for _, x := range sets {
		tree.Induct(x, full.Difference(x))
	}
	tr.end(sp)
	p.InductS = time.Since(t).Seconds()
	p.InductSets, p.Nodes, p.FDs = len(sets), tree.NodeCount(), tree.CountFDs()
	return p
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the hypervisor ran something else while this
// machine's CPUs wanted to run, summed over CPUs: the steal column of
// /proc/stat, in USER_HZ (1/100 s) ticks. 0 where unavailable.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * (time.Second / 100)
}

// vmHWM reads the process's peak resident set size in KiB from
// /proc/self/status; 0 where the file is unavailable.
func vmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}
