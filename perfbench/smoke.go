package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the smoke mode checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smoke runs every workload once at a tiny size, untraced and traced,
// through the same reference, fingerprint and trace plumbing as a real
// run. It fails when a run's check fails, when a metric BENCHMARK.json
// names is missing or has another unit, when the workload lists
// disagree, or when a corrupted reference goes unnoticed.
func smoke(ctx context.Context, cfg config) error {
	raw, err := os.ReadFile(cfg.benchJSON)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", cfg.benchJSON, err)
	}
	var problems []string
	if len(bf.Workloads) != len(workloads) {
		problems = append(problems, fmt.Sprintf("%s lists %d workloads, the benchmark has %d", cfg.benchJSON, len(bf.Workloads), len(workloads)))
	}
	for _, bw := range bf.Workloads {
		if _, err := workloadByName(bw.Name); err != nil {
			problems = append(problems, err.Error())
		}
	}
	cfg.seconds = 0.05
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.trace, c.smoke = w.name, traced, true
			d, m, err := runWorkload(ctx, c)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, traced, err)
			}
			if err := writeFiles(c, d, m); err != nil {
				return err
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
				if len(m.Spans) == 0 {
					problems = append(problems, w.name+": traced run recorded no spans")
				}
			}
			for _, bm := range want {
				s, ok := d.Metrics[bm.Name]
				switch {
				case !ok:
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s missing", w.name, traced, bm.Name))
				case s.Unit != bm.Unit:
					problems = append(problems, fmt.Sprintf("%s trace=%v: metric %s has unit %s, want %s", w.name, traced, bm.Name, s.Unit, bm.Unit))
				}
			}
			if len(d.Metrics) != len(want) {
				problems = append(problems, fmt.Sprintf("%s trace=%v: %d metrics, %s names %d", w.name, traced, len(d.Metrics), cfg.benchJSON, len(want)))
			}
			for _, p := range d.Problems {
				problems = append(problems, fmt.Sprintf("%s trace=%v: %s", w.name, traced, p))
			}
			fmt.Fprintf(os.Stderr, "smoke %s trace=%v: %d ops, %d failed, %d metrics\n", w.name, traced, d.Attempted, d.Failed, len(d.Metrics))
		}
	}
	c := cfg
	c.workload, c.smoke, c.corrupt = workloads[0].name, true, true
	d, _, err := runWorkload(ctx, c)
	if err != nil {
		return err
	}
	if d.Correct || d.Failed != d.Attempted {
		problems = append(problems, fmt.Sprintf("corrupted reference: correct=%v, %d of %d ops failed", d.Correct, d.Failed, d.Attempted))
	}
	if len(problems) > 0 {
		return fmt.Errorf("smoke failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println(`{"smoke": "ok"}`)
	return nil
}
