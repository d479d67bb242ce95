package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	vertexica "repro"
)

// registry reads the engine's metrics registry into a map.
func registry(eng *vertexica.Engine) map[string]float64 {
	out := map[string]float64{}
	for _, st := range eng.DB().Stats().Snapshot() {
		out[st.Name] = float64(st.Value)
	}
	return out
}

// shareLayers are the layers a harness span can belong to.
var shareLayers = []string{"client", "engine", "facade", "core", "sqlgraph"}

// tracedPass is the second, shorter pass that produces the per-layer
// numbers: one set-up, a replay of a third of the workload with the span
// recorder on, the end-of-run checks, then the layer ladder on the
// workload's own engine. The spans go to <outDir>/trace_<workload>.jsonl.
func tracedPass(ctx context.Context, cfg *config, spec *workloadSpec) (*passResult, error) {
	rec := newRecorder()
	w := spec.make(cfg, rec)
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b := w.state()
	eng := w.fixture().eng
	eng.WorkerBudget().ResetHighWater()
	reg0, proc0, heap := registry(eng), readProcess(), watchHeap()
	err := runRounds(ctx, w, cfg.seconds/3)
	peak := heap.finish()
	if err != nil {
		return nil, err
	}
	reg1, proc1 := registry(eng), readProcess()
	if err := w.finish(ctx); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	res := b.result()
	delta := func(name string) float64 { return reg1[name] - reg0[name] }
	ops := float64(res.Attempted)

	layer := map[string]float64{
		"dataset.generate_s": b.setupT["generate"].Seconds(),

		"engine.plancache_hit_ratio": ratio(delta("plancache.hits"), delta("plancache.hits")+delta("plancache.misses")),
		"engine.fastpath_ratio":      ratio(delta("engine.fastpath.taken"), delta("engine.fastpath.taken")+delta("engine.fastpath.declined")),
		"mvcc.epochs":                delta("mvcc.epoch"),
		"mvcc.peak_readers":          reg1["mvcc.peak_readers"],
		"sched.budget_waits":         delta("sched.budget_waits"),
		"sched.budget_high_water":    reg1["sched.budget_high_water"],
		"storage.replay_spill_bytes": delta("spill.bytes"),
		"storage.replay_spill_runs":  delta("spill.runs"),

		"process.alloc_bytes_per_op": ratio(float64(proc1.mem.TotalAlloc-proc0.mem.TotalAlloc), ops),
		"process.peak_heap_mb":       float64(peak) / (1 << 20),
		"process.gc_pause_ms":        float64(proc1.mem.PauseTotalNs-proc0.mem.PauseTotalNs) / 1e6,
		"process.cpu_s":              (proc1.cpu - proc0.cpu).Seconds(),
	}
	if d, ok := b.setupT["bulkload"]; ok {
		layer["core.bulkload_edges_s"] = ratio(float64(cfg.size.graphEdges), d.Seconds())
	}
	shares := rec.selfShares()
	for _, l := range shareLayers {
		layer[l+".self_share_pct"] = shares[l]
	}
	if err := ladder(ctx, cfg, w.fixture(), layer); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	// What the workload measured on itself outranks the fixture's number.
	for k, v := range b.layer {
		layer[k] = v
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(cfg.outDir, "trace_"+spec.name+".jsonl")); err != nil {
		return nil, err
	}
	res.Metrics = layer
	return res, nil
}
