package vertexica

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/sqlgraph"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Graph statements. `PAGERANK g 10`, `SSSP g 0 1`, `COMPONENTS_SQL g`,
// `TRIANGLES g`, `GRAPHS` and `LOAD twitter 0.01` parse as ordinary
// statements (sql.GraphStmt) and run through the engine's statement
// lifecycle — traced, timed out, counted, slow-logged like SQL — which
// hands them to runGraphStmt, the runner this facade registers once.
// The wire protocol's Graph frames, the console's backslash commands
// and EXPLAIN [ANALYZE] <verb> all build the same statement, so the
// verb list lives only in the table below.

// verbParam describes one positional argument of a graph verb.
type verbParam struct {
	name string
	kind byte   // 'g' graph name (opened), 'w' word, 'i' integer, 'f' number
	def  string // value when omitted; "" makes the argument required
}

// verbArgs are a graph statement's validated arguments.
type verbArgs struct {
	g    *Graph  // the 'g' parameter, opened
	word string  // the 'w' parameter
	ints []int64 // the 'i' parameters, in order
	num  float64 // the 'f' parameter
}

// graphVerb is one row of the verb table: the arguments it takes, how
// it runs, and (optionally) how EXPLAIN renders it.
type graphVerb struct {
	params []verbParam
	// run executes the verb; the caller holds the write gate (marked on
	// ctx). stats is nil for verbs without a vertex-centric run.
	run func(ctx context.Context, e *Engine, a *verbArgs, opts Options) (out *storage.Batch, stats *RunStats, err error)
	// explain renders the plan without running; nil = no EXPLAIN form.
	explain func(a *verbArgs, opts Options) ([]string, error)
	// summary is the closing EXPLAIN ANALYZE line (default: row count).
	summary func(out *storage.Batch) string
}

var (
	graphParam = verbParam{name: "graph", kind: 'g'}
	itersParam = verbParam{name: "iterations", kind: 'i', def: "10"}
	ssspParams = []verbParam{graphParam, {name: "source", kind: 'i', def: "0"}, {name: "unit_weights", kind: 'i', def: "0"}}
)

// graphVerbs is the one verb table. Keys are the lower-cased SQL
// spelling (the wire's historical dashed names map onto it at the frame
// handler).
var graphVerbs = map[string]graphVerb{
	"graphs": {
		run: func(_ context.Context, e *Engine, _ *verbArgs, _ Options) (*storage.Batch, *RunStats, error) {
			b := storage.NewBatch(storage.NewSchema(storage.Col("graph", storage.TypeString)))
			for _, n := range e.db.Catalog().Names() {
				if name, ok := strings.CutSuffix(n, "_vertex"); ok && name != "" {
					if err := b.AppendRow(storage.Str(name)); err != nil {
						return nil, nil, err
					}
				}
			}
			return b, nil, nil
		},
	},
	"load": {
		params: []verbParam{{name: "dataset", kind: 'w', def: "twitter"}, {name: "scale", kind: 'f', def: "0.01"}},
		run: func(_ context.Context, e *Engine, a *verbArgs, _ Options) (*storage.Batch, *RunStats, error) {
			gen, ok := map[string]func(float64) *Dataset{
				"twitter": TwitterScale, "gplus": GPlusScale, "livejournal": LiveJournalScale,
			}[a.word]
			if !ok {
				return nil, nil, fmt.Errorf("graph verb LOAD: unknown dataset %q (want twitter, gplus or livejournal)", a.word)
			}
			ds := gen(a.num)
			g, err := e.loadDataset(ds)
			if err != nil {
				return nil, nil, err
			}
			if err := e.applyMetadata(ds, 42); err != nil {
				return nil, nil, err
			}
			nv, _ := g.NumVertices()
			ne, _ := g.NumEdges()
			b := storage.NewBatch(storage.NewSchema(
				storage.Col("graph", storage.TypeString),
				storage.Col("vertices", storage.TypeInt64),
				storage.Col("edges", storage.TypeInt64),
			))
			return b, nil, b.AppendRow(storage.Str(g.Name()), storage.Int64(nv), storage.Int64(ne))
		},
	},
	"pagerank": {
		params: []verbParam{graphParam, itersParam},
		run: func(ctx context.Context, _ *Engine, a *verbArgs, opts Options) (*storage.Batch, *RunStats, error) {
			ranks, rs, err := a.g.PageRank(ctx, int(a.ints[0]), opts)
			return floatMapBatch("rank", ranks), rs, err
		},
		explain: func(a *verbArgs, opts Options) ([]string, error) {
			return core.ExplainRun(a.g.g, fmt.Sprintf("pagerank iterations=%d", a.ints[0]),
				algorithms.NewPageRank(int(a.ints[0])), opts)
		},
	},
	"pagerank_sql": {
		params: []verbParam{graphParam, itersParam},
		run: func(ctx context.Context, _ *Engine, a *verbArgs, _ Options) (*storage.Batch, *RunStats, error) {
			ranks, err := a.g.PageRankSQL(ctx, int(a.ints[0]))
			return floatMapBatch("rank", ranks), nil, err
		},
		explain: func(a *verbArgs, _ Options) ([]string, error) {
			return core.ExplainSQL(a.g.g, fmt.Sprintf("pagerank iterations=%d", a.ints[0]), int(a.ints[0]))
		},
	},
	"sssp": {
		params: ssspParams,
		run: func(ctx context.Context, _ *Engine, a *verbArgs, opts Options) (*storage.Batch, *RunStats, error) {
			dists, rs, err := a.g.ShortestPaths(ctx, a.ints[0], a.ints[1] != 0, opts)
			return floatMapBatch("dist", dists), rs, err
		},
		explain: func(a *verbArgs, opts Options) ([]string, error) {
			return core.ExplainRun(a.g.g, fmt.Sprintf("sssp source=%d unit_weights=%v", a.ints[0], a.ints[1] != 0),
				&algorithms.SSSP{Source: a.ints[0], UnitWeights: a.ints[1] != 0}, opts)
		},
	},
	"sssp_sql": {
		params: ssspParams,
		run: func(ctx context.Context, _ *Engine, a *verbArgs, _ Options) (*storage.Batch, *RunStats, error) {
			dists, err := a.g.ShortestPathsSQL(ctx, a.ints[0], a.ints[1] != 0)
			return floatMapBatch("dist", dists), nil, err
		},
		explain: func(a *verbArgs, _ Options) ([]string, error) {
			return core.ExplainSQL(a.g.g, fmt.Sprintf("sssp source=%d unit_weights=%v", a.ints[0], a.ints[1] != 0), 0)
		},
	},
	"components": {
		params: []verbParam{graphParam},
		run: func(ctx context.Context, _ *Engine, a *verbArgs, opts Options) (*storage.Batch, *RunStats, error) {
			labels, rs, err := a.g.ConnectedComponents(ctx, opts)
			return intMapBatch("component", labels), rs, err
		},
		explain: func(a *verbArgs, opts Options) ([]string, error) {
			return core.ExplainRun(a.g.g, "components", algorithms.ConnectedComponents{}, opts)
		},
	},
	"components_sql": {
		params: []verbParam{graphParam},
		run: func(ctx context.Context, _ *Engine, a *verbArgs, _ Options) (*storage.Batch, *RunStats, error) {
			labels, err := a.g.ConnectedComponentsSQL(ctx)
			return intMapBatch("component", labels), nil, err
		},
		explain: func(a *verbArgs, _ Options) ([]string, error) {
			return core.ExplainSQL(a.g.g, "components", 0)
		},
	},
	"triangles": {
		params: []verbParam{graphParam},
		run: func(ctx context.Context, _ *Engine, a *verbArgs, _ Options) (*storage.Batch, *RunStats, error) {
			n, err := sqlgraph.TriangleCount(ctx, a.g.g)
			if err != nil {
				return nil, nil, err
			}
			b := storage.NewBatch(storage.NewSchema(storage.Col("triangles", storage.TypeInt64)))
			return b, nil, b.AppendRow(storage.Int64(n))
		},
		explain: func(a *verbArgs, _ Options) ([]string, error) {
			nv, err := a.g.NumVertices()
			if err != nil {
				return nil, err
			}
			ne, err := a.g.NumEdges()
			if err != nil {
				return nil, err
			}
			return []string{
				fmt.Sprintf("triangles on graph %q (one-shot SQL)", a.g.Name()),
				fmt.Sprintf("  graph: %d vertices, %d edges", nv, ne),
				"  plan: self-join the edge table on shared endpoints, count closing edges",
			}, nil
		},
		summary: func(out *storage.Batch) string {
			return fmt.Sprintf("  executed: triangles=%d", out.Cols[0].Value(0).I)
		},
	},
}

// parseArgs validates a statement's arguments against the verb's
// parameter list: arity, then each argument's form. Nothing is
// defaulted silently — only an omitted optional argument takes its
// declared default.
func (v graphVerb) parseArgs(e *Engine, g *sql.GraphStmt) (*verbArgs, error) {
	verb := strings.ToUpper(g.Verb)
	if len(g.Args) > len(v.params) {
		return nil, fmt.Errorf("graph verb %s: takes at most %d arguments, got %d", verb, len(v.params), len(g.Args))
	}
	a := &verbArgs{}
	for i, p := range v.params {
		raw := p.def
		if i < len(g.Args) {
			raw = g.Args[i]
		}
		if raw == "" {
			return nil, fmt.Errorf("graph verb %s: missing argument %d (%s)", verb, i+1, p.name)
		}
		var err error
		switch p.kind {
		case 'g':
			a.g, err = e.OpenGraph(raw)
		case 'w':
			a.word = raw
		case 'i':
			var n int64
			if n, err = strconv.ParseInt(raw, 10, 64); err != nil {
				err = fmt.Errorf("graph verb %s: argument %d %q is not an integer", verb, i+1, raw)
			}
			a.ints = append(a.ints, n)
		case 'f':
			if a.num, err = strconv.ParseFloat(raw, 64); err != nil {
				err = fmt.Errorf("graph verb %s: argument %d %q is not a number", verb, i+1, raw)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// runGraphStmt is the engine.GraphRunner the facade registers: the one
// dispatcher behind every graph-statement surface. A run holds the
// cross-session write gate for its whole duration (see gated); the
// session that issued the statement has already been checked for an
// open transaction by the engine, and nothing here touches the facade's
// default-session lock, so the statement may arrive through any session
// — the default one included.
func (e *Engine) runGraphStmt(ctx context.Context, g *sql.GraphStmt, explain, analyze bool, workers int) (*storage.Batch, []obs.Stat, error) {
	v, ok := graphVerbs[g.Verb]
	if !ok {
		return nil, nil, fmt.Errorf("unknown graph verb %q", strings.ToUpper(g.Verb))
	}
	a, err := v.parseArgs(e, g)
	if err != nil {
		return nil, nil, err
	}
	// The session's per-statement worker cap applies to vertex-centric
	// runs via Options.Workers. (SQL-flavored verbs plan with the engine
	// default; their extra workers still come from the global budget, so
	// the process-wide bound holds regardless.)
	opts := Options{Workers: workers}
	var lines []string
	if explain {
		if v.explain == nil {
			return nil, nil, fmt.Errorf("EXPLAIN does not support graph verb %q", strings.ToUpper(g.Verb))
		}
		if lines, err = v.explain(a, opts); err != nil || !analyze {
			return planBatch(lines), nil, err
		}
	}

	var (
		out *storage.Batch
		rs  *RunStats
	)
	tc := trace.FromContext(ctx)
	err = e.gated(ctx, func(ctx context.Context) error {
		start := time.Now()
		out, rs, err = v.run(ctx, e, a, opts)
		addSuperstepSpans(tc, rs, start)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if !explain {
		return out, runStatsTrailer(rs), nil
	}
	lines = append(lines, core.ExplainStats(rs)...)
	if v.summary != nil {
		lines = append(lines, v.summary(out))
	} else {
		lines = append(lines, fmt.Sprintf("  result: %d rows", out.Len()))
	}
	return planBatch(lines), nil, nil
}

// gated runs fn holding the engine's cross-session write gate, stamping
// the wait and the run as the statement's gate and exec lifecycle spans
// (no-ops without a collector on ctx). The gate is marked on the
// context so nested write statements (a SQL driver's scratch-table DDL)
// and nested facade calls skip re-acquisition instead of deadlocking;
// the collector is masked, because the statements a run issues are
// detail of its exec stage, not lifecycle stages that tile the trace.
func (e *Engine) gated(ctx context.Context, fn func(ctx context.Context) error) error {
	if engine.GateHeld(ctx) {
		return fn(ctx)
	}
	tc := trace.FromContext(ctx)
	endGate := tc.Begin("gate")
	if err := e.db.AcquireWriteGate(ctx); err != nil {
		endGate("not acquired: " + err.Error())
		return err
	}
	endGate("exclusive write gate")
	defer e.db.ReleaseWriteGate()
	endExec := tc.Begin("exec")
	err := fn(engine.WithGateHeld(trace.WithCollector(ctx, nil)))
	endExec("graph run")
	return err
}

// addSuperstepSpans folds a vertex-centric run's per-superstep stats
// into the statement's trace as depth-1 spans under exec, laid end to
// end from the run's start (the coordinator records durations, not
// timestamps).
func addSuperstepSpans(tc *trace.Collector, rs *RunStats, start time.Time) {
	if tc == nil || rs == nil {
		return
	}
	off := int64(start.Sub(tc.StartTime()))
	for _, st := range rs.Steps {
		cache := "build"
		if st.CacheHit {
			cache = "hit"
		}
		tc.AddSpan(trace.Span{
			Stage:   "superstep",
			Detail:  fmt.Sprintf("computed=%d messages=%d cache=%s skipped_parts=%d", st.Computed, st.MessagesOut, cache, st.SkippedParts),
			StartNs: off,
			DurNs:   int64(st.Duration),
			Depth:   1,
		})
		off += int64(st.Duration)
	}
}

// runStatsTrailer flattens a vertex-centric run's RunStats into the
// named stats a graph statement's rows carry (the wire's Done-frame
// trailer).
func runStatsTrailer(rs *RunStats) []obs.Stat {
	if rs == nil {
		return nil
	}
	return []obs.Stat{
		{Name: "supersteps", Value: int64(rs.Supersteps)},
		{Name: "total_computed", Value: rs.TotalComputed},
		{Name: "total_messages", Value: rs.TotalMessages},
		{Name: "dangling_messages", Value: rs.DanglingMessages},
		{Name: "cache_builds", Value: int64(rs.CacheBuilds)},
		{Name: "cache_hits", Value: int64(rs.CacheHits)},
		{Name: "skipped_partitions", Value: rs.SkippedParts},
		{Name: "skipped_vertices", Value: rs.SkippedVerts},
		{Name: "duration_us", Value: rs.Duration.Microseconds()},
	}
}

// planBatch shapes EXPLAIN lines as the one-column result every
// EXPLAIN returns.
func planBatch(lines []string) *storage.Batch {
	b := storage.NewBatch(storage.NewSchema(storage.Col("plan", storage.TypeString)))
	b.Cols[0] = storage.NewStringColumn(lines)
	return b
}

// floatMapBatch materializes an id→float map sorted by id.
func floatMapBatch(col string, m map[int64]float64) *storage.Batch {
	ids, vals := sortedIDs(m), make([]float64, 0, len(m))
	for _, id := range ids {
		vals = append(vals, m[id])
	}
	b := storage.NewBatch(storage.NewSchema(storage.Col("id", storage.TypeInt64), storage.Col(col, storage.TypeFloat64)))
	b.Cols[0], b.Cols[1] = storage.NewInt64Column(ids), storage.NewFloat64Column(vals)
	return b
}

// intMapBatch materializes an id→int map sorted by id.
func intMapBatch(col string, m map[int64]int64) *storage.Batch {
	ids, vals := sortedIDs(m), make([]int64, 0, len(m))
	for _, id := range ids {
		vals = append(vals, m[id])
	}
	b := storage.NewBatch(storage.NewSchema(storage.Col("id", storage.TypeInt64), storage.Col(col, storage.TypeInt64)))
	b.Cols[0], b.Cols[1] = storage.NewInt64Column(ids), storage.NewInt64Column(vals)
	return b
}

func sortedIDs[V any](m map[int64]V) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
