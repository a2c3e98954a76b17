// Command benchpr9 measures the sharded multi-attribute partition kernels
// and the off-heap column pager.
//
// Section one times Refine and IntersectAll — the kernels every lattice
// walk lives in — over a shard-count curve: the serial kernel is the
// baseline, then the pool variant runs at 1–16 shards with one worker and
// with every core, checking each result byte-identical to the serial
// output. Refine shards one partition's clusters; IntersectAll fans a
// level's worth of PLI products out over the pool, each job serially on
// one worker, so its cells vary only in workers.
// The gate adapts to the host exactly like benchpr8's: with more than one
// CPU the best sharded cell must beat the serial baseline outright; on a
// single CPU it must stay within 5% pool overhead.
//
// Section two prices paging the encoded columns off-heap. A DFD run over a
// 600k-row generated relation executes twice in child processes — once
// with the columns resident on the heap and once ingested through the
// column pager — and the parent requires: identical cover SHAs, every
// column actually paged, and a paged-leg peak RSS (VmHWM) below the
// resident leg's.
//
// Timings are minima over -iters runs. `make bench-pr9` writes
// BENCH_pr9.json at the repo root; exit 1 when a gate fails.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	dhyfd "repro"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/partition"
)

const overheadGate = 0.05

// kernelCell is one measured point of a kernel's shard-count curve.
type kernelCell struct {
	Shards    int   `json:"shards"`
	ShardSize int   `json:"shard_size"`
	Workers   int   `json:"workers"`
	Ns        int64 `json:"ns"`
	Identical bool  `json:"identical"` // byte-identical to the serial kernel
}

// kernelReport is the curve of one kernel (refine or intersectall).
type kernelReport struct {
	Kernel   string       `json:"kernel"`
	SerialNs int64        `json:"serial_ns"`
	Cells    []kernelCell `json:"cells"`
	BestNs   int64        `json:"best_ns"`
	Overhead float64      `json:"overhead"` // BestNs/SerialNs - 1
	Gate     string       `json:"gate"`
	Pass     bool         `json:"pass"`
}

type shardReport struct {
	Dataset string         `json:"dataset"`
	Rows    int            `json:"rows"`
	Cols    int            `json:"cols"`
	Kernels []kernelReport `json:"kernels"`
	Pass    bool           `json:"pass"`
}

// childReport is what one pager-section child process prints on stdout.
type childReport struct {
	CoverSHA   string `json:"cover_sha"`
	CoverFDs   int    `json:"cover_fds"`
	Degraded   bool   `json:"degraded"`
	VmHWMKB    int64  `json:"vmhwm_kb"`
	Paged      int64  `json:"columns_paged"`
	PageFaults int64  `json:"column_page_faults"`
}

type pagerReport struct {
	Rows          int   `json:"rows"`
	Cols          int   `json:"cols"`
	ColumnsPaged  int64 `json:"columns_paged"`
	PageFaults    int64 `json:"column_page_faults"`
	ResidentVmHWM int64 `json:"resident_vmhwm_kb"`
	PagedVmHWM    int64 `json:"paged_vmhwm_kb"`
	CoverFDs      int   `json:"cover_fds"`
	Match         bool  `json:"match"`
	Pass          bool  `json:"pass"`
}

type report struct {
	Harness string      `json:"harness"`
	CPUs    int         `json:"cpus"`
	Iters   int         `json:"iterations"`
	Shard   shardReport `json:"kernel_curve"`
	Pager   pagerReport `json:"pager"`
}

func main() {
	iters := flag.Int("iters", 3, "iterations per timing; the minimum is reported")
	out := flag.String("o", "", "write the JSON report here (stdout when empty)")
	smoke := flag.Bool("smoke", false, "small sizes: one fast pass to catch bit-rot, not a measurement")
	child := flag.String("pager-child", "", "internal: run one pager-section leg (paged|resident) and print its childReport")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "benchpr9 child:", err)
			os.Exit(1)
		}
		return
	}
	if *smoke {
		*iters = 1
	}

	rep := report{Harness: "benchpr9", CPUs: runtime.NumCPU(), Iters: *iters}
	failed := false

	sr, err := kernelCurves(*iters, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpr9:", err)
		os.Exit(1)
	}
	rep.Shard = sr
	if !sr.Pass {
		failed = true
	}

	pr, err := pagerSection(*smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpr9:", err)
		os.Exit(1)
	}
	rep.Pager = pr
	if !pr.Pass {
		failed = true
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpr9:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchpr9:", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchpr9: gate failed")
		os.Exit(1)
	}
}

// kernelCurves times partition.Kernels' Refine and IntersectAll at every
// (shards, workers) cell against a one-worker Kernels — the serial
// kernel — on one ncvoter-shaped relation. A breached gate is
// re-measured up to twice; only a reproducible breach fails the harness.
func kernelCurves(iters int, smoke bool) (shardReport, error) {
	rows, cols := 400_000, 10
	if smoke {
		rows, cols = 40_000, 8
	}
	b, err := dataset.ByName("ncvoter")
	if err != nil {
		return shardReport{}, err
	}
	r := b.Generate(rows, cols)
	sr := shardReport{Dataset: "ncvoter", Rows: rows, Cols: cols}

	// The parent partition both kernels start from: π_{gender,zip} — the
	// low-cardinality pair, so the parent keeps every row spread over a
	// few hundred medium clusters, the shape mid-lattice walks live in.
	// (ncvoter's leading columns are near-keys; starting there would strip
	// the parent to nothing and time an empty kernel.)
	ctx := context.Background()
	parent, err := partition.NewKernels(nil, 0, nil).Refine(ctx, partition.Single(r.Cols[4], r.Cards[4]), r.Cols[5], r.Cards[5])
	if err != nil {
		return shardReport{}, err
	}
	// The product batch: π_{gender,zip} times every other column, one
	// IntersectJob each, the shape of one TANE level's products.
	var jobs []partition.IntersectJob
	for c := 0; c < cols; c++ {
		if c != 4 && c != 5 {
			jobs = append(jobs, partition.IntersectJob{Part: parent, Col: r.Cols[c], Card: r.Cards[c]})
		}
	}

	// Each kernel runs through partition.Kernels; the serial leg is a
	// one-worker Kernels, which takes the serial kernel directly.
	type kernel struct {
		name string
		run  func(k *partition.Kernels) ([]*partition.Partition, error)
	}
	kernels := []kernel{
		{"refine", func(k *partition.Kernels) ([]*partition.Partition, error) {
			p, err := k.Refine(ctx, parent, r.Cols[1], r.Cards[1])
			return []*partition.Partition{p}, err
		}},
		{"intersectall", func(k *partition.Kernels) ([]*partition.Partition, error) {
			return k.IntersectAll(ctx, jobs)
		}},
	}

	measure := func(k kernel) kernelReport {
		kr := kernelReport{Kernel: k.name}
		var want []*partition.Partition
		serial := partition.NewKernels(nil, 0, nil)
		kr.SerialNs = minNs(iters, func() error {
			var err error
			want, err = k.run(serial)
			return err
		})
		workerSet := []int{1}
		if n := runtime.NumCPU(); n > 1 {
			workerSet = append(workerSet, n)
		}
		for _, shards := range []int{1, 2, 4, 8, 16} {
			shardSize := (rows + shards - 1) / shards
			for _, workers := range workerSet {
				kern := partition.NewKernels(engine.NewPool(workers), shardSize, nil)
				var got []*partition.Partition
				ns := minNs(iters, func() error {
					var berr error
					got, berr = k.run(kern)
					return berr
				})
				cell := kernelCell{
					Shards: shards, ShardSize: shardSize, Workers: workers, Ns: ns,
					Identical: identical(got, want),
				}
				kr.Cells = append(kr.Cells, cell)
				if kr.BestNs == 0 || ns < kr.BestNs {
					kr.BestNs = ns
				}
			}
		}
		kr.Overhead = round3(float64(kr.BestNs)/float64(kr.SerialNs) - 1)
		switch {
		case smoke:
			kr.Gate = "smoke: byte-identity only"
			kr.Pass = true
		case runtime.NumCPU() > 1:
			kr.Gate = "sharded kernel beats the serial baseline"
			kr.Pass = kr.BestNs < kr.SerialNs
		default:
			kr.Gate = fmt.Sprintf("single-CPU pool overhead <= %.0f%%", overheadGate*100)
			kr.Pass = kr.Overhead <= overheadGate
		}
		for _, c := range kr.Cells {
			if !c.Identical {
				kr.Pass = false
			}
		}
		return kr
	}

	sr.Pass = true
	for _, k := range kernels {
		best := measure(k)
		for attempt := 0; !best.Pass && attempt < 2; attempt++ {
			again := measure(k)
			if again.Overhead < best.Overhead {
				best = again
			}
		}
		for _, c := range best.Cells {
			fmt.Fprintf(os.Stderr, "%-12s %2dx w=%d  %-10v identical=%v\n",
				best.Kernel, c.Shards, c.Workers, time.Duration(c.Ns).Round(time.Microsecond), c.Identical)
		}
		fmt.Fprintf(os.Stderr, "%-12s serial %-10v best sharded %v (%+.1f%%) gate[%s] pass=%v\n",
			best.Kernel, time.Duration(best.SerialNs).Round(time.Microsecond),
			time.Duration(best.BestNs).Round(time.Microsecond), best.Overhead*100, best.Gate, best.Pass)
		sr.Kernels = append(sr.Kernels, best)
		if !best.Pass {
			sr.Pass = false
		}
	}
	return sr, nil
}

// identical reports whether two kernel outputs hold the same partitions
// in the same order, each byte-identical in layout.
func identical(got, want []*partition.Partition) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !got[i].Identical(want[i]) {
			return false
		}
	}
	return true
}

// pagerSpec is the pager-section workload: categorical bulk plus one
// planted FD, large enough that the encoded columns dominate the heap.
func pagerSpec(smoke bool) dataset.Spec {
	rows := 600_000
	if smoke {
		rows = 60_000
	}
	return dataset.Spec{
		Name: "paged", Rows: rows, Seed: 9,
		Columns: []dataset.Column{
			{Kind: dataset.Categorical, Card: 8},
			{Kind: dataset.Categorical, Card: 8},
			{Kind: dataset.Categorical, Card: 6},
			{Kind: dataset.Zipf, Card: 32},
			{Kind: dataset.Derived, Deps: []int{0, 1}, Card: 64},
			{Kind: dataset.Categorical, Card: 4},
			{Kind: dataset.Categorical, Card: 5},
			{Kind: dataset.Zipf, Card: 16},
		},
	}
}

// runChild executes one pager-section leg in this process and prints its
// childReport. The workload streams to a CSV file first — blocks never
// accumulate on the heap — then ingests it resident or paged, releases
// everything but the relation, resets the peak-RSS high-water mark and
// runs discovery, so VmHWM measures the run plus the leg's own column
// storage and nothing else.
func runChild(mode string, smoke bool) error {
	spec := pagerSpec(smoke)
	csvPath, err := writeCSV(spec)
	if err != nil {
		return err
	}
	defer os.Remove(csvPath)

	opts := dhyfd.Options{}
	switch mode {
	case "resident":
	case "paged":
		dir, err := os.MkdirTemp("", "benchpr9-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.PageColumns = true
		opts.PageDir = dir
	default:
		return fmt.Errorf("unknown leg %q", mode)
	}
	r, err := dhyfd.ReadCSVFile(csvPath, opts)
	if err != nil {
		return err
	}
	defer r.Close()
	// Drop ingest garbage, then for the paged leg drop the freshly written
	// column pages too: discovery refaults what it touches, and the
	// between-walk PageOut keeps the peak at one walk's working set.
	r.PageOut()
	debug.FreeOSMemory()
	resetVmHWM()

	res, err := dhyfd.Discover(context.Background(), r,
		dhyfd.WithAlgorithm(dhyfd.DFD), dhyfd.WithPartitionCache(32<<20))
	if err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(dhyfd.FormatFDs(res.FDs, r.Names)))
	cr := childReport{
		CoverSHA:   hex.EncodeToString(sum[:]),
		CoverFDs:   len(res.FDs),
		Degraded:   res.Stats.Degraded,
		VmHWMKB:    vmHWM(),
		Paged:      res.Stats.ColumnsPaged,
		PageFaults: res.Stats.ColumnPageFaults,
	}
	return json.NewEncoder(os.Stdout).Encode(cr)
}

// writeCSV streams the spec to a temp CSV file and returns its path.
func writeCSV(spec dataset.Spec) (string, error) {
	f, err := os.CreateTemp("", "benchpr9-*.csv")
	if err != nil {
		return "", err
	}
	if err := streamCSV(f, spec); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return f.Name(), nil
}

// streamCSV writes the spec through a csv.Writer, flushing before every
// return so no buffered rows are abandoned when a write fails mid-stream.
func streamCSV(f *os.File, spec dataset.Spec) error {
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write(spec.Names()); err != nil {
		return err
	}
	if err := dataset.Stream(spec, 0, func(block [][]string) error {
		return w.WriteAll(block)
	}); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// pagerSection runs the two legs as child processes and applies the
// off-heap gate.
func pagerSection(smoke bool) (pagerReport, error) {
	spec := pagerSpec(smoke)
	pr := pagerReport{Rows: spec.Rows, Cols: len(spec.Columns)}

	exe, err := os.Executable()
	if err != nil {
		return pr, err
	}
	leg := func(mode string) (childReport, error) {
		args := []string{"-pager-child", mode}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return childReport{}, fmt.Errorf("%s leg: %w", mode, err)
		}
		var cr childReport
		if err := json.Unmarshal(out, &cr); err != nil {
			return childReport{}, fmt.Errorf("%s leg output: %w", mode, err)
		}
		return cr, nil
	}

	resident, err := leg("resident")
	if err != nil {
		return pr, err
	}
	paged, err := leg("paged")
	if err != nil {
		return pr, err
	}

	pr.ColumnsPaged, pr.PageFaults = paged.Paged, paged.PageFaults
	pr.ResidentVmHWM, pr.PagedVmHWM = resident.VmHWMKB, paged.VmHWMKB
	pr.CoverFDs = paged.CoverFDs
	pr.Match = paged.CoverSHA == resident.CoverSHA && paged.CoverFDs == resident.CoverFDs
	pr.Pass = pr.Match &&
		!paged.Degraded && !resident.Degraded &&
		paged.Paged == int64(len(spec.Columns)) &&
		resident.Paged == 0
	// The RSS bound itself: the paged leg must peak below the resident
	// leg. Skipped when VmHWM is unreadable (non-Linux) and in smoke runs,
	// whose column footprint is too small to clear GC noise.
	if !smoke && resident.VmHWMKB > 0 && paged.VmHWMKB > 0 && paged.VmHWMKB >= resident.VmHWMKB {
		pr.Pass = false
	}
	fmt.Fprintf(os.Stderr,
		"pager    %dx%d paged=%d faults=%d rss %dKB vs resident %dKB cover=%d match=%v pass=%v\n",
		pr.Rows, pr.Cols, pr.ColumnsPaged, pr.PageFaults,
		pr.PagedVmHWM, pr.ResidentVmHWM, pr.CoverFDs, pr.Match, pr.Pass)
	return pr, nil
}

// resetVmHWM clears the process's peak-RSS high-water mark (Linux only;
// elsewhere the write fails and VmHWM simply stays unavailable).
func resetVmHWM() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// vmHWM reads the process's peak resident set from /proc/self/status in
// kilobytes; 0 when unavailable.
func vmHWM() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// minNs reports the fastest of iters runs of f.
func minNs(iters int, f func() error) int64 {
	var best int64
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			panic(err)
		}
		ns := int64(time.Since(t0))
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func round3(f float64) float64 {
	if f < 0 {
		return float64(int64(f*1000-0.5)) / 1000
	}
	return float64(int64(f*1000+0.5)) / 1000
}
