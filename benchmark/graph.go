package main

import (
	"context"
	"fmt"
	"time"

	vertexica "repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

const (
	pagerankIters  = 10
	ssspPerRound   = 2
	warmupPRIters  = 2
	rmatA, rmatB   = 0.57, 0.19
	fixtureScale   = 10
	fixtureEdges   = 8000
	smokeFixtScale = 7
	smokeFixtEdges = 400
)

// graphWorkload runs PageRank, shortest paths and a bulk load on one
// RMAT graph, through the vertex-centric runtime or through the SQL
// drivers. op1 = PageRank(10), op2 = SSSP, op3 = bulk load.
type graphWorkload struct {
	base
	sql bool

	ds      *dataset.Graph
	eng     *vertexica.Engine
	g       *vertexica.Graph
	source  int64
	refRank []float64
	refDist []int32
	loads   int
}

func newGraphWorkload(sql bool) func(*config, *recorder) workload {
	return func(cfg *config, rec *recorder) workload {
		return &graphWorkload{base: newBase(cfg, rec), sql: sql}
	}
}

func (w *graphWorkload) setup(ctx context.Context) error {
	sz := w.cfg.size
	t0 := time.Now()
	w.ds = dataset.RMAT(graphName, sz.graphScale, sz.graphEdges, rmatA, rmatB, rmatB, w.cfg.seed)
	w.setupT["generate"] = time.Since(t0)
	var err error
	if w.eng, err = newEngine(w.cfg, ""); err != nil {
		return err
	}
	t0 = time.Now()
	if w.g, err = w.eng.LoadDataset(w.ds); err != nil {
		return err
	}
	w.setupT["bulkload"] = time.Since(t0)
	if err = createNodes(w.eng, w.ds.Nodes); err != nil {
		return err
	}
	w.source, w.refDist = ssspSource(w.ds)
	// Warm-up: the first run of each algorithm (two PageRank rounds are
	// enough to touch every code path the ten-round runs use).
	if _, _, err = w.pagerank(ctx, warmupPRIters); err != nil {
		return err
	}
	_, _, err = w.sssp(ctx)
	return err
}

// oracle computes the reference ranks once, outside set-up: it is the
// harness's work, not the system's.
func (w *graphWorkload) oracle() {
	if w.refRank == nil {
		w.refRank = refPageRank(w.ds.Nodes, w.ds.Edges, pagerankIters)
	}
}

func (w *graphWorkload) pagerank(ctx context.Context, iters int) (map[int64]float64, *core.RunStats, error) {
	if w.sql {
		ranks, err := w.g.PageRankSQL(ctx, iters)
		return ranks, nil, err
	}
	return w.g.PageRank(ctx, iters, graphOptions(w.cfg))
}

func (w *graphWorkload) sssp(ctx context.Context) (map[int64]float64, *core.RunStats, error) {
	if w.sql {
		dists, err := w.g.ShortestPathsSQL(ctx, w.source, true)
		return dists, nil, err
	}
	return w.g.ShortestPaths(ctx, w.source, true, graphOptions(w.cfg))
}

func (w *graphWorkload) round(ctx context.Context) error {
	w.oracle()
	var ranks, dists map[int64]float64
	w.graphOp(0, "pagerank", func() (stats *core.RunStats, err error) {
		ranks, stats, err = w.pagerank(ctx, pagerankIters)
		return stats, err
	}, func() error { return checkRanks(ranks, w.refRank) })
	for i := 0; i < ssspPerRound; i++ {
		w.graphOp(1, "sssp", func() (stats *core.RunStats, err error) {
			dists, stats, err = w.sssp(ctx)
			return stats, err
		}, func() error { return checkDists(dists, w.refDist) })
	}
	w.loads++
	name := fmt.Sprintf("%sload%d", graphName, w.loads)
	var loaded int64
	w.graphOp(2, "bulkload", func() (*core.RunStats, error) {
		g, err := loadGraph(w.eng, w.ds, name)
		if err != nil {
			return nil, err
		}
		if loaded, err = g.NumEdges(); err != nil {
			return nil, err
		}
		return nil, w.eng.DropGraph(name)
	}, func() error {
		if loaded != int64(len(w.ds.Edges)) {
			return fmt.Errorf("bulk load: %d edges, want %d", loaded, len(w.ds.Edges))
		}
		return nil
	})
	return nil
}

// graphOp times run, one graph operation, and then checks its answer
// with check, outside the timed interval.
func (w *graphWorkload) graphOp(slot int, name string, run func() (*core.RunStats, error), check func() error) {
	op, start := w.rec.op(), w.rec.now()
	t0 := time.Now()
	stats, err := run()
	d := time.Since(t0)
	w.phase(d)
	w.observe(slot, d)
	if w.rec != nil {
		w.recordGraphSpans(op, name, start, w.rec.now(), stats)
	}
	if err == nil {
		err = check()
	}
	if err != nil {
		w.wrong(err)
	}
}

// recordGraphSpans lays one graph operation out as spans: a vertex-
// centric run is facade → core.run → one span per superstep (durations
// from RunStats; their position inside the parent is not measured, so
// they are placed back to back from its start); a SQL run is a single
// sqlgraph span, since its statements go through DB-level calls that
// leave no trace.
func (w *graphWorkload) recordGraphSpans(op int64, name string, start, end int64, stats *core.RunStats) {
	switch {
	case name == "bulkload":
		w.rec.add(op, 0, "core.bulkload", start, end)
	case stats == nil:
		w.rec.add(op, 0, "sqlgraph."+name, start, end)
	default:
		root := w.rec.add(op, 0, "facade."+name, start, end)
		run := w.rec.add(op, root, "core.run", start, start+int64(stats.Duration))
		at := start
		for _, st := range stats.Steps {
			w.rec.add(op, run, "core.superstep", at, at+int64(st.Duration))
			at += int64(st.Duration)
		}
	}
}

func (w *graphWorkload) finish(context.Context) error { return nil }

func (w *graphWorkload) fixture() *fixture {
	return &fixture{eng: w.eng, nodes: w.ds.Nodes, graph: w.g}
}

func (w *graphWorkload) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}

// graphProbe measures the graph layers on g: one vertex-centric
// PageRank for the core.* numbers and one SQL PageRank for sqlgraph.*.
// Every traced pass runs it, on the workload's own graph when it has one
// and on a small fixture graph otherwise.
func graphProbe(ctx context.Context, cfg *config, eng *vertexica.Engine, g *vertexica.Graph, out map[string]float64) error {
	t0 := time.Now()
	_, stats, err := g.PageRank(ctx, pagerankIters, graphOptions(cfg))
	call := time.Since(t0)
	if err != nil {
		return err
	}
	var steps []float64
	var inputRows int64
	for _, st := range stats.Steps {
		steps = append(steps, float64(st.Duration)/1e6)
		inputRows += int64(st.InputRows)
	}
	out["core.superstep_p50_ms"] = median(steps)
	if len(steps) > 0 {
		out["core.superstep0_ms"] = steps[0]
	}
	out["core.msgs_per_s"] = ratio(float64(stats.TotalMessages), stats.Duration.Seconds())
	out["core.run_overhead_ms"] = float64(call-stats.Duration) / 1e6
	out["core.messages"] = float64(stats.TotalMessages)
	out["core.input_rows"] = float64(inputRows)
	out["core.skipped_parts"] = float64(stats.SkippedParts)
	out["core.cache_hit_ratio"] = ratio(float64(stats.CacheHits), float64(stats.Supersteps))

	// The SQL drivers run DB-level statements, which the per-kind
	// statement counters do not see; every write statement publishes one
	// MVCC epoch, so the epoch delta counts them exactly.
	epoch0 := eng.DB().MVCC().Epoch()
	t0 = time.Now()
	if _, err := g.PageRankSQL(ctx, pagerankIters); err != nil {
		return err
	}
	out["sqlgraph.iter_ms"] = float64(time.Since(t0)) / 1e6 / pagerankIters
	out["sqlgraph.statements_per_run"] = float64(eng.DB().MVCC().Epoch() - epoch0)
	return nil
}

// fixtureGraphProbe runs graphProbe on a small graph of its own, for
// the workloads that hold no graph.
func fixtureGraphProbe(ctx context.Context, cfg *config, out map[string]float64) error {
	scale, edges := uint(fixtureScale), fixtureEdges
	if cfg.smoke {
		scale, edges = smokeFixtScale, smokeFixtEdges
	}
	ds := dataset.RMAT(graphName+"fix", scale, edges, rmatA, rmatB, rmatB, cfg.seed)
	eng, err := newEngine(cfg, "")
	if err != nil {
		return err
	}
	defer eng.Close()
	t0 := time.Now()
	g, err := eng.LoadDataset(ds)
	if err != nil {
		return err
	}
	out["core.bulkload_edges_s"] = ratio(float64(len(ds.Edges)), time.Since(t0).Seconds())
	return graphProbe(ctx, cfg, eng, g, out)
}
