// Command vxmark is the repository's benchmark: six named workloads, an
// end-to-end pass and a traced per-layer pass, correctness oracles on
// every answer, and a comparison of two result files. BENCHMARK.json at
// the repository root names it and fixes the metrics and their bounds;
// README.md in this directory says how to read and use it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/storage"
)

// workloadSpec names one workload and its three operation classes: the
// end-to-end metrics op1..op3 mean these operations on this workload.
type workloadSpec struct {
	name string
	ops  [3]string
	make func(*config, *recorder) workload
}

var workloads = []workloadSpec{
	{"graph_vertex", [3]string{"PageRank(10), vertex-centric", "SSSP, vertex-centric", "bulk load of the graph"}, newGraphWorkload(false)},
	{"graph_sql", [3]string{"PageRank(10), SQL driver", "SSSP, SQL driver", "bulk load of the graph"}, newGraphWorkload(true)},
	{"sql_analytic", [3]string{"filter + GROUP BY", "FK hash join + aggregate", "two-key ORDER BY, drained"}, newSQLWorkload(false)},
	{"sql_spill", [3]string{"filter + GROUP BY, 64 KiB grant", "FK hash join + aggregate, 64 KiB grant", "two-key ORDER BY, 64 KiB grant"}, newSQLWorkload(true)},
	{"serve_read", [3]string{"point lookup over loopback", "one-hop join over loopback", "whole-table stream drain"}, newServeWorkload(false)},
	{"serve_mixed", [3]string{"point lookup beside a writer", "durable single-row INSERT", "durable shard-key UPDATE"}, newServeWorkload(true)},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- BENCHMARK.json ---

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent (the benchmark runs from the repository root; its tests run
// from this directory).
func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named checks that the measured metrics are exactly the ones the spec
// names and attaches the spec's units.
func named(specs []metricSpec, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is named in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not named in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// --- the result file ---

type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeat     int     `json:"repeat"`
	Smoke      bool    `json:"smoke"`
	WALPolicy  string  `json:"wal_flush_policy"`
	Time       string  `json:"time"`
}

// walPolicy states the durability setting serve_mixed ran under.
const walPolicy = "engine default: WAL fsync before every acknowledgement, group commit across concurrent writers"

type metricReport struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"` // median over the repeats
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"` // one per repeat
}

type workloadReport struct {
	Ops        [3]string               `json:"ops"`
	Correct    bool                    `json:"correct"`
	Attempted  int64                   `json:"attempted"`
	Failed     int64                   `json:"failed"`
	ErrorRatio float64                 `json:"error_ratio"`
	WallS      float64                 `json:"wall_s"`
	EndToEnd   map[string]metricReport `json:"end_to_end,omitempty"`
	OpSamples  [3]summary              `json:"op_samples_ms"` // in-run latency samples of the last repeat
	PerLayer   map[string]metricValue  `json:"per_layer,omitempty"`
	Notes      []string                `json:"notes,omitempty"`
}

type report struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func newStamp(cfg *config, repeat int) stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel: model, Seed: cfg.seed, Seconds: cfg.seconds, Repeat: repeat, Smoke: cfg.smoke,
		WALPolicy: walPolicy, Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// --- running ---

// opSlot maps an end-to-end metric name to its operation class (1..3, 0
// for none) and says whether it is the class's median latency.
func opSlot(name string) (slot int, isMedian bool) {
	for s := 1; s <= 3; s++ {
		switch name {
		case fmt.Sprintf("op%d_ms", s):
			return s, true
		case fmt.Sprintf("op%d_p95_ms", s):
			return s, false
		}
	}
	return 0, false
}

// runWorkload runs the selected passes of one workload and prints one
// line per metric: workload metric value unit n q1 q3.
func runWorkload(ctx context.Context, cfg *config, spec *benchmarkSpec, ws *workloadSpec, passes [2]bool, repeat int) (*workloadReport, map[string]metricValue, error) {
	wr := &workloadReport{Ops: ws.ops, Correct: true}
	var last map[string]metricValue
	t0 := time.Now()
	note := func(res *passResult) {
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.Notes = append(wr.Notes, res.Notes...)
	}
	if passes[0] {
		values := map[string][]float64{}
		for i := 0; i < repeat; i++ {
			res, err := endToEnd(ctx, cfg, ws)
			if err != nil {
				return nil, nil, err
			}
			if last, err = named(spec.EndToEnd, res.Metrics); err != nil {
				return nil, nil, err
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v)
			}
			wr.OpSamples = res.Ops
			note(res)
		}
		wr.EndToEnd = map[string]metricReport{}
		for _, m := range spec.EndToEnd {
			s := summarize(values[m.Name])
			wr.EndToEnd[m.Name] = metricReport{Unit: m.Unit, Value: s.Median, Q1: s.Q1, Q3: s.Q3, Values: values[m.Name]}
			slot, isMedian := opSlot(m.Name)
			if isMedian && repeat == 1 {
				// For a single run's latency median the in-run sample is the
				// better description: how many operations, their quartiles.
				s = wr.OpSamples[slot-1]
			}
			line := fmt.Sprintf("%s %s %.6g %s n=%d q1=%.6g q3=%.6g", ws.name, m.Name, s.Median, m.Unit, s.N, s.Q1, s.Q3)
			if slot > 0 {
				line += "  # " + ws.ops[slot-1]
			}
			fmt.Println(line)
		}
	}
	if passes[1] {
		res, err := tracedPass(ctx, cfg, ws)
		if err != nil {
			return nil, nil, err
		}
		if last, err = named(spec.PerLayer, res.Metrics); err != nil {
			return nil, nil, err
		}
		wr.PerLayer = last
		note(res)
		for _, m := range spec.PerLayer {
			fmt.Printf("%s %s %.6g %s n=1 q1=- q3=-\n", ws.name, m.Name, res.Metrics[m.Name], m.Unit)
		}
	}
	wr.ErrorRatio = ratio(float64(wr.Failed), float64(wr.Attempted))
	wr.WallS = time.Since(t0).Seconds()
	for _, n := range wr.Notes {
		fmt.Fprintf(os.Stderr, "%s: oracle failure: %s\n", ws.name, n)
	}
	return wr, last, nil
}

func run() error {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 0, "measured seconds per end-to-end pass (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0 = end-to-end pass only, 1 = traced per-layer pass only, -1 = both")
		smoke    = flag.Bool("smoke", false, "about 1% of the data and one round, to check the harness itself")
		repeat   = flag.Int("repeat", 1, "end-to-end passes per workload; the result file keeps every value")
		out      = flag.String("out", "", "write the result file here")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments and exit")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: vxmark -compare a.json b.json")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	cfg := &config{seed: *seed, seconds: *seconds, smoke: *smoke, size: fullSizes}
	cfg.pin = min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(cfg.pin)
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.smoke {
		cfg.size, cfg.seconds = smokeSizes, 0
	}
	// Traces and scratch files go to out/ next to this package, whether the
	// benchmark runs from the repository root or from its own directory.
	cfg.outDir = "out"
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		cfg.outDir = filepath.Join("benchmark", "out")
	}
	// Spill files default to the system temp directory; keep everything
	// the benchmark writes under its own output directory.
	spillDir, err := scratchDir(cfg, "spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(cfg.outDir, "tmp"))
	if err := storage.SetSpillDir(spillDir); err != nil {
		return err
	}

	var selected []*workloadSpec
	if *workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if ws := findWorkload(*workload); ws != nil {
		selected = append(selected, ws)
	} else {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	passes := [2]bool{*trace != 1, *trace != 0}

	ctx := context.Background()
	rep := report{Workloads: map[string]*workloadReport{}}
	failed := false
	var last *workloadReport
	var lastMetrics map[string]metricValue
	for _, ws := range selected {
		wr, metrics, err := runWorkload(ctx, cfg, spec, ws, passes, *repeat)
		if err != nil {
			return fmt.Errorf("%s: %w", ws.name, err)
		}
		rep.Workloads[ws.name] = wr
		failed = failed || !wr.Correct
		last, lastMetrics = wr, metrics
	}
	if *out != "" {
		rep.Stamp = newStamp(cfg, *repeat)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	// The driver's contract: the last line of a single-workload,
	// single-pass run is one JSON object.
	if len(selected) == 1 && *trace >= 0 {
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, lastMetrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return errors.New("an oracle failed: see the oracle failure lines above")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vxmark:", err)
		os.Exit(1)
	}
}
