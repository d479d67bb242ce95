package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/storage"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// exactCounts are the layer counts that must repeat bit for bit at a
// fixed seed: they are made by the program, not by a clock.
var exactCounts = []string{
	"core.messages", "core.input_rows", "core.skipped_parts",
	"sqlgraph.statements_per_run",
	"engine.wal_bytes_per_commit",
	"storage.spill_runs_agg", "storage.spill_runs_join", "storage.spill_runs_sort",
}

func smokeConfig(t *testing.T) *config {
	t.Helper()
	cfg := &config{seed: 1, smoke: true, outDir: t.TempDir(), pin: 2, size: smokeSizes}
	spill, err := scratchDir(cfg, "spill")
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.SetSpillDir(spill); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { storage.SetSpillDir("") })
	return cfg
}

// TestBenchmarkJSON checks the file against the limits of the contract it
// is written to, and against the workloads this package implements.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("unexpected key %q", k)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d implemented", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("invalid name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, implemented as %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: invalid unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// TestSmoke runs all six workloads, both passes, twice, at the smoke
// sizing: every oracle must pass, every metric BENCHMARK.json names must
// be measured and nothing else, and the exact counts must repeat.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range workloads {
		ws := &workloads[i]
		t.Run(ws.name, func(t *testing.T) {
			var layers [2]map[string]float64
			for run := range layers {
				cfg := smokeConfig(t)
				e2e, err := endToEnd(ctx, cfg, ws)
				if err != nil {
					t.Fatal(err)
				}
				if !e2e.Correct {
					t.Fatalf("end-to-end pass: %d of %d operations failed: %v", e2e.Failed, e2e.Attempted, e2e.Notes)
				}
				if _, err := named(spec.EndToEnd, e2e.Metrics); err != nil {
					t.Error(err)
				}
				for name, v := range e2e.Metrics {
					if v <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", name, v)
					}
				}
				traced, err := tracedPass(ctx, cfg, ws)
				if err != nil {
					t.Fatal(err)
				}
				if !traced.Correct {
					t.Fatalf("traced pass: %d of %d operations failed: %v", traced.Failed, traced.Attempted, traced.Notes)
				}
				if _, err := named(spec.PerLayer, traced.Metrics); err != nil {
					t.Error(err)
				}
				if fi, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+ws.name+".jsonl")); err != nil || fi.Size() == 0 {
					t.Errorf("no trace written: %v", err)
				}
				layers[run] = traced.Metrics
			}
			for _, name := range exactCounts {
				if a, b := layers[0][name], layers[1][name]; a != b {
					t.Errorf("%s is %v on the first run and %v on the second, want identical", name, a, b)
				}
			}
		})
	}
}

// TestBypass checks the property the workloads were chosen for: each
// layer has a workload that exercises it and one that bypasses it.
func TestBypass(t *testing.T) {
	ctx := context.Background()
	layer := func(name string) map[string]float64 {
		t.Helper()
		res, err := tracedPass(ctx, smokeConfig(t), findWorkload(name))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	vertex, sqlg := layer("graph_vertex"), layer("graph_sql")
	if got := vertex["core.self_share_pct"]; got < 60 {
		t.Errorf("graph_vertex spends %.1f%% in core spans, want >= 60", got)
	}
	if got := sqlg["core.self_share_pct"]; got >= 10 {
		t.Errorf("graph_sql spends %.1f%% in core spans, want < 10", got)
	}
	analytic, spill := layer("sql_analytic"), layer("sql_spill")
	if got := analytic["storage.replay_spill_bytes"]; got != 0 {
		t.Errorf("sql_analytic spilled %v bytes, want 0", got)
	}
	if got := spill["storage.replay_spill_bytes"]; got <= 0 {
		t.Errorf("sql_spill spilled %v bytes, want > 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{
		{Name: "op1_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	write := func(name string, op1, ops metricReport) string {
		t.Helper()
		r := report{Workloads: map[string]*workloadReport{"w": {EndToEnd: map[string]metricReport{"op1_ms": op1, "ops_s": ops}}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := func(v float64) metricReport { return metricReport{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	base := write("a.json", steady(100), steady(50))
	if err := compareFiles(spec, base, write("same.json", steady(105), steady(48))); err != nil {
		t.Errorf("within the bounds, got %v", err)
	}
	if err := compareFiles(spec, base, write("slow.json", steady(115), steady(50))); err == nil {
		t.Error("op1_ms 15% slower passed a 10% bound")
	}
	if err := compareFiles(spec, base, write("low.json", steady(100), steady(40))); err == nil {
		t.Error("ops_s 20% lower passed a 10% bound")
	}
	noisy := metricReport{Value: 100, Q1: 80, Q3: 120}
	if err := compareFiles(spec, base, write("noisy.json", noisy, steady(50))); err != nil {
		t.Errorf("a noisy but not worse metric is unresolved, not a failure: %v", err)
	}
}
