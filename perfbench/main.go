// Command perfbench is the repository's benchmark. It generates one
// workload's input from a seed, computes the reference output in a
// process of its own with an independent algorithm, runs the workload's
// operation in a closed loop with one client in a second process, checks
// every operation's output against the reference and prints the result
// as one JSON object on the last line of standard output.
//
//	perfbench --workload tall-weather --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a traced run. --smoke runs every workload once at a tiny size in
// both modes and fails if a metric BENCHMARK.json names is missing.
// Build it with run.sh, which keeps every build product in the checkout.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// roleEnv selects what a process of this binary does: the parent (unset)
// starts the reference and measuring processes with it set.
const roleEnv = "PERFBENCH_ROLE"

// childTimeout bounds each child process; a whole run must end within
// 180 seconds.
const childTimeout = 170 * time.Second

// pins.json holds, per workload, the FD count and SHA-256 of the sorted
// cover (and on the profile workload the canonical size and the full
// output digest). Every seed yields the same relation up to row order and
// value names, so the pins hold for every seed.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	FDs          int    `json:"fds"`
	CoverSHA256  string `json:"cover_sha256"`
	CanonicalFDs int    `json:"canonical_fds,omitempty"`
	Digest       string `json:"output_sha256,omitempty"`
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	corrupt   bool
	out       string
	benchJSON string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds the closed loop measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run and per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "run every workload once at a tiny size and check the metric names")
	flag.BoolVar(&cfg.corrupt, "corrupt-reference", false, "self-test: alter the reference digest, so every op must fail the check")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for result and trace files")
	flag.StringVar(&cfg.benchJSON, "benchmark-json", "BENCHMARK.json", "metric list the smoke mode checks against")
	flag.Parse()
	cfg.trace = traceFlag == 1

	ctx := context.Background()
	var err error
	switch role := os.Getenv(roleEnv); role {
	case "":
		if cfg.smoke {
			err = smoke(ctx, cfg)
		} else {
			err = parent(ctx, cfg)
		}
	case "reference", "measure":
		err = child(ctx, role, cfg)
	default:
		err = fmt.Errorf("unknown %s %q", roleEnv, role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// child runs one role on the CSV bytes read from standard input and
// writes its report as JSON to standard output.
func child(ctx context.Context, role string, cfg config) error {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	csvBytes, err := io.ReadAll(os.Stdin)
	if err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	var rep any
	if role == "reference" {
		rep, err = reference(ctx, w, csvBytes, cfg.trace)
	} else {
		rep, err = measure(ctx, w, csvBytes, cfg.seconds, cfg.trace, cfg.smoke)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawn runs this binary in role with the workload flags, feeding it the
// CSV bytes, and decodes its JSON report into v. It waits for the child
// to exit.
func spawn(ctx context.Context, role string, cfg config, csvBytes []byte, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"--workload", cfg.workload,
		"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64),
		"--trace", strconv.Itoa(boolInt(cfg.trace)),
		"--smoke="+strconv.FormatBool(cfg.smoke))
	cmd.Env = append(os.Environ(), roleEnv+"="+role)
	cmd.Stdin = bytes.NewReader(csvBytes)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s process: %w", role, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), v); err != nil {
		return fmt.Errorf("%s report: %w", role, err)
	}
	return nil
}

// environment describes where and how a result was measured.
type environment struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Ops        int     `json:"ops"`
}

// detail is the full record of one run, written next to the result line.
type detail struct {
	Env       environment        `json:"environment"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRate  float64            `json:"fail_rate"`
	Problems  []string           `json:"problems,omitempty"`
	Reference refReport          `json:"reference"`
	Metrics   map[string]summary `json:"metrics"`
	Sources   map[string]string  `json:"sources,omitempty"`
	// AllOps holds medians over every timed op, disturbed or not.
	AllOps map[string]summary `json:"all_ops,omitempty"`
	Ops    []opSample         `json:"ops"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parent runs one workload and prints its result line. It exits non-zero
// after printing when any check failed.
func parent(ctx context.Context, cfg config) error {
	d, m, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	if err := writeFiles(cfg, d, m); err != nil {
		return err
	}
	report(os.Stderr, d)
	res := result{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]metric{}}
	for name, s := range d.Metrics {
		res.Metrics[name] = metric{Value: s.Median, Unit: s.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !d.Correct {
		return errors.New("output check failed: " + fmt.Sprint(d.Problems))
	}
	return nil
}

// runWorkload generates the input, computes the reference, measures, and
// checks every op against the reference.
func runWorkload(ctx context.Context, cfg config) (detail, measureReport, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return detail{}, measureReport{}, err
	}
	csvBytes, err := input(w, cfg.seed, cfg.smoke)
	if err != nil {
		return detail{}, measureReport{}, err
	}
	var d detail
	if err := spawn(ctx, "reference", cfg, csvBytes, &d.Reference); err != nil {
		return detail{}, measureReport{}, err
	}
	if !cfg.smoke {
		d.Problems = checkPin(w.name, d.Reference)
	}
	want := d.Reference.Digest
	if cfg.corrupt {
		want = "corrupted:" + want
	}
	var m measureReport
	if err := spawn(ctx, "measure", cfg, csvBytes, &m); err != nil {
		return detail{}, measureReport{}, err
	}
	for i, o := range m.Ops {
		d.Attempted++
		switch {
		case o.Err != "":
			d.Failed++
			d.Problems = append(d.Problems, fmt.Sprintf("op %d: %s", i, o.Err))
		case o.Digest != want:
			d.Failed++
			d.Problems = append(d.Problems, fmt.Sprintf("op %d: output %s differs from reference %s", i, o.Digest, want))
		}
	}
	d.Ops = m.Ops
	d.Correct = len(d.Problems) == 0
	d.FailRate = float64(d.Failed) / float64(max(d.Attempted, 1))
	if cfg.trace {
		d.Metrics, d.Sources = layerMetrics(w, m, d.Reference, runtime.NumCPU())
	} else {
		d.Metrics, d.AllOps = endToEndMetrics(m, runtime.NumCPU()), allOpsMetrics(m)
	}
	d.Env = environment{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Ops: d.Attempted - 1, // the warm-up op is not timed
	}
	return d, m, nil
}

// checkPin compares the reference with the pinned cover of the workload.
func checkPin(name string, ref refReport) []string {
	pins := map[string]pin{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return []string{"pins.json: " + err.Error()}
	}
	p, ok := pins[name]
	if !ok {
		return []string{"no pin for workload " + name}
	}
	var problems []string
	if ref.FDs != p.FDs || ref.CoverSHA256 != p.CoverSHA256 {
		problems = append(problems, fmt.Sprintf("reference cover %d FDs %s, pinned %d FDs %s", ref.FDs, ref.CoverSHA256, p.FDs, p.CoverSHA256))
	}
	if p.Digest != "" && (ref.CanonicalFDs != p.CanonicalFDs || ref.Digest != p.Digest) {
		problems = append(problems, fmt.Sprintf("reference output %d canonical FDs %s, pinned %d %s", ref.CanonicalFDs, ref.Digest, p.CanonicalFDs, p.Digest))
	}
	return problems
}

// writeFiles writes the run's detail record and, for a traced run, the
// spans with each layer's self time.
func writeFiles(cfg config, d detail, m measureReport) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, boolInt(cfg.trace))
	if err := writeJSON(filepath.Join(cfg.out, "result-"+base+".json"), d); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	return writeJSON(filepath.Join(cfg.out, "trace-"+base+".json"), struct {
		Env    environment        `json:"environment"`
		Self   map[string]float64 `json:"layer_self_s"`
		Phases map[int]any        `json:"phases"`
		Probe  *probeReport       `json:"probe"`
		Spans  []span             `json:"spans"`
	}{d.Env, layerSelfTimes(m), opPhases(m), m.Probe, m.Spans})
}

// opPhases lists each traced op's Discover phases.
func opPhases(m measureReport) map[int]any {
	out := map[int]any{}
	for i, o := range m.Ops {
		if o.Traced {
			out[i] = o.Stats.Phases
		}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints the environment and every metric with its sample count
// and quartiles.
func report(w io.Writer, d detail) {
	env, _ := json.Marshal(d.Env)
	fmt.Fprintf(w, "environment %s\n", env)
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed (fail_rate %.4f), reference %s %d FDs\n",
		d.Env.Workload, d.Attempted, d.Failed, d.FailRate, d.Reference.Algorithm, d.Reference.FDs)
	names := make([]string, 0, len(d.Metrics))
	for name := range d.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := d.Metrics[name]
		fmt.Fprintf(w, "  %-28s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g %s %s\n",
			name, s.N, s.Median, s.Q1, s.Q3, s.Unit, d.Sources[name])
	}
	for _, p := range d.Problems {
		fmt.Fprintln(w, "  FAIL", p)
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
