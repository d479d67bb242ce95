// Package vertexica is a Go reproduction of "Vertexica: Your Relational
// Friend for Graph Analytics!" (Jindal et al., VLDB 2014): vertex-
// centric (Pregel-style) graph analytics executed entirely on a
// relational column-store engine, together with hand-tuned SQL graph
// algorithms, hybrid 1-hop analyses, dynamic/temporal graph analysis,
// and relational pre-/post-processing pipelines.
//
// The package is a facade over the internal subsystems:
//
//	engine     — embedded columnar SQL engine (the Vertica stand-in)
//	core       — the vertex-centric coordinator/worker runtime
//	algorithms — vertex programs (PageRank, SSSP, WCC, CF, RWR)
//	sqlgraph   — the SQL implementations ("Vertexica (SQL)")
//	pipeline   — dataflow composition (Figure 3)
//	temporal   — snapshots, time series, continuous analysis (§3.3)
//	dataset    — workload generators and SNAP I/O
//
// Quick start:
//
//	vx := vertexica.New()
//	g, _ := vx.LoadDataset(vertexica.TwitterScale(0.05))
//	ranks, _, _ := g.PageRank(context.Background(), 10)
package vertexica

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/sqlgraph"
	"repro/internal/storage"
)

// Re-exported types so callers program against one package.
type (
	// Value is a dynamically typed SQL scalar.
	Value = storage.Value
	// Type is a SQL column type.
	Type = storage.Type
	// Rows is a query result: facade entry points return it
	// materialized (random access via Len/Row/Value); streaming
	// consumers use engine.Session.RunStream and iterate with Next.
	Rows = engine.Rows
	// Edge is a graph edge with weight/type/created metadata.
	Edge = core.Edge
	// Message is a vertex-to-vertex message.
	Message = core.Message
	// VertexProgram is a user vertex computation (Pregel API).
	VertexProgram = core.VertexProgram
	// VertexContext is the per-vertex worker API.
	VertexContext = core.VertexContext
	// Options tunes a vertex-centric run (workers, batching partitions,
	// superstep bound).
	Options = core.Options
	// RunStats profiles a vertex-centric run.
	RunStats = core.RunStats
	// ScalarFunc is a SQL scalar UDF.
	ScalarFunc = expr.ScalarFunc
	// Dataset is a generated or loaded graph workload.
	Dataset = dataset.Graph
	// OverlapPair is a strong-overlap result row.
	OverlapPair = sqlgraph.OverlapPair
	// WeakTie is a weak-ties result row.
	WeakTie = sqlgraph.WeakTie
)

// Column types, re-exported for UDF signatures.
const (
	TypeInt64   = storage.TypeInt64
	TypeFloat64 = storage.TypeFloat64
	TypeString  = storage.TypeString
	TypeBool    = storage.TypeBool
)

// Value constructors, re-exported for UDFs and direct row assembly.
var (
	Int64Value   = storage.Int64
	Float64Value = storage.Float64
	StringValue  = storage.Str
	BoolValue    = storage.Bool
	NullValue    = storage.Null
)

// Dataset generators (see internal/dataset for parameters).
var (
	// TwitterScale generates the Twitter-shaped dataset of Figure 2.
	TwitterScale = dataset.TwitterScale
	// GPlusScale generates the GPlus-shaped dataset of Figure 2.
	GPlusScale = dataset.GPlusScale
	// LiveJournalScale generates the LiveJournal-shaped dataset.
	LiveJournalScale = dataset.LiveJournalScale
	// ErdosRenyi generates a uniform random graph.
	ErdosRenyi = dataset.ErdosRenyi
	// PreferentialAttachment generates a power-law graph.
	PreferentialAttachment = dataset.PreferentialAttachment
	// RMAT generates a Kronecker-style graph.
	RMAT = dataset.RMAT
	// MakeUndirected symmetrizes a dataset's edges.
	MakeUndirected = dataset.MakeUndirected
)

// Engine is a Vertexica instance: an embedded relational database with
// the vertex-centric layer on top.
type Engine struct {
	db        *engine.DB
	sessionMu sync.Mutex      // sessions run one statement at a time; keep the facade goroutine-safe
	session   *engine.Session // default session (REPL / embedded SQL)
}

// New returns an in-memory Vertexica engine.
func New() *Engine { return newEngine(engine.New()) }

// Open returns a persistent engine rooted at dir (snapshot + WAL
// recovery happen here if files exist).
func Open(dir string) (*Engine, error) {
	db, err := engine.Open(dir)
	if err != nil {
		return nil, err
	}
	return newEngine(db), nil
}

// newEngine wraps a database and registers the facade as its
// graph-statement runner.
func newEngine(db *engine.DB) *Engine {
	e := &Engine{db: db, session: db.NewSession()}
	db.SetGraphRunner(e.runGraphStmt)
	return e
}

// Close flushes and closes the engine.
func (e *Engine) Close() error { return e.db.Close() }

// Checkpoint makes all current table contents durable (persistent
// engines only).
func (e *Engine) Checkpoint() error { return e.db.Checkpoint() }

// DB exposes the underlying relational engine for advanced use (direct
// catalog access, its own sessions). Its Query*/Exec* calls run through
// the statement lifecycle on a session the DB embeds, so each is
// counted, traced and slow-logged like any statement; a DB-level
// BEGIN/COMMIT/ROLLBACK is that session's transaction, separate from
// the default session's (Engine.Begin, SQL("BEGIN")). Statements issued
// under a graph run's write-gate context are detail of the run.
func (e *Engine) DB() *engine.DB { return e.db }

// SetParallelism caps how many worker goroutines one SQL statement may
// use (morsel-parallel scans/filters/projections, parallel hash-join
// probes, partitioned aggregation). Default: runtime.NumCPU(). 1 runs
// fully serial; results are byte-identical at every setting.
func (e *Engine) SetParallelism(n int) { e.db.SetParallelism(n) }

// SetWorkerBudget caps the total extra worker goroutines across every
// concurrent SQL statement AND vertex-centric run sharing this engine
// — the global budget that keeps a PageRank run and a burst of SQL
// sessions from oversubscribing cores. Each parallel construct keeps
// its calling goroutine for free and draws extras from the budget, so
// execution degrades toward serial under load instead of thrashing;
// results are byte-identical at every budget. n <= 0 removes the cap
// (the default).
func (e *Engine) SetWorkerBudget(n int) { e.db.SetWorkerBudget(n) }

// WorkerBudget exposes the shared budget's gauges (capacity, in-use,
// high-water) for benchmarks and serving dashboards.
func (e *Engine) WorkerBudget() *sched.Budget { return e.db.WorkerBudget() }

// Session returns the engine's default session (session variables such
// as statement_timeout, SET/SHOW, transaction scope). The network
// server gives every connection its own session; embedded callers
// share this one through SQL/Begin/Commit/Rollback, which serialize on
// it. Callers that want concurrent statements should create their own
// sessions with DB().NewSession() instead of driving this one from
// several goroutines.
func (e *Engine) Session() *engine.Session { return e.session }

// runDefault executes one statement on the default session. Sessions
// run one statement at a time, so the facade serializes here — Engine
// stays safe for concurrent use, exactly like before the serving
// layer existed.
func (e *Engine) runDefault(query string) (*Rows, engine.Result, error) {
	e.sessionMu.Lock()
	defer e.sessionMu.Unlock()
	return e.session.Run(context.Background(), query)
}

// SQL executes any SQL statement through the default session; SELECTs
// (and SHOW) return rows, DML returns nil rows with the affected
// count, and SET/BEGIN/COMMIT/ROLLBACK manage the session.
func (e *Engine) SQL(query string) (*Rows, int, error) {
	rows, res, err := e.runDefault(query)
	if err != nil {
		return nil, 0, err
	}
	return rows, res.RowsAffected, nil
}

// RegisterUDF installs a scalar SQL UDF.
func (e *Engine) RegisterUDF(f *ScalarFunc) error { return e.db.RegisterUDF(f) }

// Begin/Commit/Rollback expose statement-level transactions (scoped to
// the default session, like SQL("BEGIN")).
func (e *Engine) Begin() error    { _, _, err := e.runDefault("BEGIN"); return err }
func (e *Engine) Commit() error   { _, _, err := e.runDefault("COMMIT"); return err }
func (e *Engine) Rollback() error { _, _, err := e.runDefault("ROLLBACK"); return err }

// Graph is a handle to one graph's relational tables.
type Graph struct {
	e *Engine
	g *core.Graph
}

// Name returns the graph name.
func (g *Graph) Name() string { return g.g.Name }

// Core exposes the internal graph handle (for pipeline/temporal
// composition).
func (g *Graph) Core() *core.Graph { return g.g }

// CreateGraph creates an empty graph (single-shard tables, the
// historical layout).
func (e *Engine) CreateGraph(name string) (*Graph, error) {
	cg, err := core.CreateGraph(e.db, name)
	if err != nil {
		return nil, err
	}
	return &Graph{e: e, g: cg}, nil
}

// CreateGraphSharded creates an empty graph whose three tables are
// hash-partitioned into the given number of shards (vertex by id, edge
// by src, message by dst) — concurrent writers on disjoint shards
// proceed in parallel and superstep input assembly aligns its
// partitions with the shard layout. Algorithm results are byte-
// identical to a single-shard graph at any shard count.
func (e *Engine) CreateGraphSharded(name string, shards int) (*Graph, error) {
	cg, err := core.CreateGraphSharded(e.db, name, shards)
	if err != nil {
		return nil, err
	}
	return &Graph{e: e, g: cg}, nil
}

// OpenGraph binds to an existing graph.
func (e *Engine) OpenGraph(name string) (*Graph, error) {
	cg, err := core.OpenGraph(e.db, name)
	if err != nil {
		return nil, err
	}
	return &Graph{e: e, g: cg}, nil
}

// DropGraph removes a graph's tables.
func (e *Engine) DropGraph(name string) error { return core.DropGraph(e.db, name) }

// LoadDataset creates a graph named after the dataset and bulk-loads
// it: vertices 0..Nodes-1 in id order, then any edge endpoint outside
// that range, then the edges, which go straight into the edge table's
// column layout. The load is a
// multi-statement writer, so it runs under the cross-session write
// gate like a transaction.
func (e *Engine) LoadDataset(ds *Dataset) (g *Graph, err error) {
	err = e.runGated(context.Background(), func(context.Context) error {
		g, err = e.loadDataset(ds)
		return err
	})
	return g, err
}

func (e *Engine) loadDataset(ds *Dataset) (*Graph, error) {
	g, err := e.CreateGraph(ds.Name)
	if err != nil {
		return nil, err
	}
	edges := core.MakeEdgeColumns(len(ds.Edges))
	for i, de := range ds.Edges {
		edges.Src[i], edges.Dst[i], edges.Weight[i], edges.Type[i], edges.Created[i] = de.Src, de.Dst, de.Weight, de.Type, de.Created
	}
	ids := make([]int64, ds.Nodes)
	for v := range ids {
		ids[v] = int64(v)
	}
	if err := g.g.LoadColumns(ids, nil, edges); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadDatasetWithMetadata additionally generates the paper's §4 vertex
// metadata table (<name>_vertex_meta).
func (e *Engine) LoadDatasetWithMetadata(ds *Dataset, seed int64) (g *Graph, err error) {
	err = e.runGated(context.Background(), func(context.Context) error {
		if g, err = e.loadDataset(ds); err != nil {
			return err
		}
		return e.applyMetadata(ds, seed)
	})
	return g, err
}

func (e *Engine) applyMetadata(ds *Dataset, seed int64) error {
	ids := make([]int64, 0, ds.Nodes)
	for v := int64(0); v < ds.Nodes; v++ {
		ids = append(ids, v)
	}
	return dataset.ApplyMetadata(e.db, ds.Name, ids, seed)
}

// AddVertex inserts one vertex. Like an auto-commit write statement it
// takes the cross-session write gate, so another session's rollback
// can never clobber it.
func (g *Graph) AddVertex(id int64, value string) error {
	return g.e.runGated(context.Background(), func(context.Context) error {
		return g.g.AddVertex(id, value)
	})
}

// AddVertexIfMissing inserts a vertex with an empty value unless it
// already exists.
func (g *Graph) AddVertexIfMissing(id int64) error {
	v, err := g.e.db.QueryScalar(fmt.Sprintf(
		"SELECT COUNT(*) FROM %s WHERE id = %d", g.g.VertexTable(), id))
	if err != nil {
		return err
	}
	if v.I > 0 {
		return nil
	}
	return g.AddVertex(id, "")
}

// AddEdge inserts one edge (gated like AddVertex).
func (g *Graph) AddEdge(src, dst int64, weight float64, etype string, created int64) error {
	return g.e.runGated(context.Background(), func(context.Context) error {
		return g.g.AddEdge(src, dst, weight, etype, created)
	})
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() (int64, error) { return g.g.NumVertices() }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() (int64, error) { return g.g.NumEdges() }

// VertexValues returns every vertex's current value string.
func (g *Graph) VertexValues() (map[int64]string, error) { return g.g.VertexValues() }

// runGated executes a whole graph-algorithm run under the engine's
// cross-session write gate (see gated): the run mutates graph tables
// across many statements and supersteps, so it must serialize with
// other writers the way a transaction does — otherwise a concurrent
// session's write could shift vertex rows under the coordinator (or a
// rollback could clobber the run's write-back). A caller that is not
// already under the gate is the embedded library API, which shares the
// default session: if that session holds an open transaction it owns
// the gate, and the run would deadlock against it.
func (e *Engine) runGated(ctx context.Context, fn func(ctx context.Context) error) error {
	if !engine.GateHeld(ctx) {
		e.sessionMu.Lock()
		inTxn := e.session.InTransaction()
		e.sessionMu.Unlock()
		if inTxn {
			return fmt.Errorf("vertexica: cannot run a graph algorithm while the default session has an open transaction")
		}
	}
	return e.gated(ctx, fn)
}

// RunProgram executes an arbitrary vertex program. initial (if non-nil)
// resets vertex values first.
func (g *Graph) RunProgram(ctx context.Context, prog VertexProgram, opts Options, initial func(id int64) string) (*RunStats, error) {
	var stats *RunStats
	err := g.e.runGated(ctx, func(ctx context.Context) error {
		if initial != nil {
			if err := g.g.ResetForRun(initial); err != nil {
				return err
			}
		}
		var err error
		stats, err = core.Run(ctx, g.g, prog, opts)
		return err
	})
	return stats, err
}

// --- vertex-centric algorithms (§3.1) ---

// PageRank runs vertex-centric PageRank for the given iterations.
func (g *Graph) PageRank(ctx context.Context, iterations int, opts ...Options) (ranks map[int64]float64, stats *RunStats, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		ranks, stats, err = algorithms.RunPageRank(ctx, g.g, iterations, optOrDefault(opts))
		return err
	})
	return ranks, stats, err
}

// ShortestPaths runs vertex-centric SSSP from source.
func (g *Graph) ShortestPaths(ctx context.Context, source int64, unitWeights bool, opts ...Options) (dists map[int64]float64, stats *RunStats, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		dists, stats, err = algorithms.RunSSSP(ctx, g.g, source, unitWeights, optOrDefault(opts))
		return err
	})
	return dists, stats, err
}

// ConnectedComponents labels each vertex with its component's min id.
func (g *Graph) ConnectedComponents(ctx context.Context, opts ...Options) (labels map[int64]int64, stats *RunStats, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		labels, stats, err = algorithms.RunConnectedComponents(ctx, g.g, optOrDefault(opts))
		return err
	})
	return labels, stats, err
}

// CollaborativeFiltering trains latent vectors on a bipartite rating
// graph and returns them per vertex.
func (g *Graph) CollaborativeFiltering(ctx context.Context, dim, iterations int, opts ...Options) (vecs map[int64][]float64, stats *RunStats, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		vecs, stats, err = algorithms.RunCollabFilter(ctx, g.g, algorithms.NewCollabFilter(dim, iterations), optOrDefault(opts))
		return err
	})
	return vecs, stats, err
}

// RandomWalkWithRestart computes personalized-PageRank scores from a
// source vertex.
func (g *Graph) RandomWalkWithRestart(ctx context.Context, source int64, iterations int, opts ...Options) (scores map[int64]float64, stats *RunStats, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		scores, stats, err = algorithms.RunRandomWalkRestart(ctx, g.g, source, iterations, optOrDefault(opts))
		return err
	})
	return scores, stats, err
}

// PredictRating is the collaborative-filtering dot-product predictor.
func PredictRating(vectors map[int64][]float64, user, item int64) (float64, bool) {
	return algorithms.Predict(vectors, user, item)
}

func optOrDefault(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// --- SQL algorithms ("Vertexica (SQL)") ---

// PageRankSQL runs the hand-tuned SQL PageRank. ctx cancels between
// and inside SQL iterations.
func (g *Graph) PageRankSQL(ctx context.Context, iterations int) (ranks map[int64]float64, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		ranks, err = sqlgraph.PageRank(ctx, g.g, iterations, 0.85)
		return err
	})
	return ranks, err
}

// ShortestPathsSQL runs the SQL SSSP (unreachable vertices absent).
func (g *Graph) ShortestPathsSQL(ctx context.Context, source int64, unitWeights bool) (dists map[int64]float64, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		dists, err = sqlgraph.ShortestPaths(ctx, g.g, source, unitWeights)
		return err
	})
	return dists, err
}

// ConnectedComponentsSQL runs SQL label propagation.
func (g *Graph) ConnectedComponentsSQL(ctx context.Context) (labels map[int64]int64, err error) {
	err = g.e.runGated(ctx, func(ctx context.Context) error {
		var err error
		labels, err = sqlgraph.ConnectedComponents(ctx, g.g)
		return err
	})
	return labels, err
}

// TriangleCount counts distinct triangles (symmetrized graphs).
func (g *Graph) TriangleCount() (int64, error) {
	return sqlgraph.TriangleCount(context.Background(), g.g)
}

// TriangleCountPerNode counts triangles per vertex.
func (g *Graph) TriangleCountPerNode() (map[int64]int64, error) {
	return sqlgraph.TriangleCountPerNode(context.Background(), g.g)
}

// StrongOverlap finds vertex pairs with >= minCommon shared neighbors.
func (g *Graph) StrongOverlap(minCommon int64) ([]OverlapPair, error) {
	return sqlgraph.StrongOverlap(context.Background(), g.g, minCommon)
}

// WeakTies finds bridge vertices with >= minPairs disconnected
// neighbor pairs.
func (g *Graph) WeakTies(minPairs int64) ([]WeakTie, error) {
	return sqlgraph.WeakTies(context.Background(), g.g, minPairs)
}

// ClusteringCoefficients computes per-vertex local clustering.
func (g *Graph) ClusteringCoefficients() (map[int64]float64, error) {
	return sqlgraph.ClusteringCoefficients(context.Background(), g.g)
}

// GlobalClusteringCoefficient combines triangle counting with wedge
// counting (§4.2.2's "combine triangle counting with weak ties").
func (g *Graph) GlobalClusteringCoefficient() (float64, error) {
	return sqlgraph.GlobalClusteringCoefficient(context.Background(), g.g)
}

// --- hybrid queries (§3.2) ---

// ImportantBridges finds "sufficiently important nodes which act as
// bridges": weak ties with at least minPairs open neighbor pairs whose
// PageRank (iterations rounds) is at least rankThreshold.
func (g *Graph) ImportantBridges(ctx context.Context, minPairs int64, rankThreshold float64, iterations int) ([]WeakTie, error) {
	ranks, _, err := g.PageRank(ctx, iterations)
	if err != nil {
		return nil, err
	}
	ties, err := g.WeakTies(minPairs)
	if err != nil {
		return nil, err
	}
	out := ties[:0]
	for _, t := range ties {
		if ranks[t.ID] >= rankThreshold {
			out = append(out, t)
		}
	}
	return out, nil
}

// ShortestPathsFromMostClustered runs SSSP with the source chosen as
// the vertex with the maximum local clustering coefficient — the §3.2
// hybrid example.
func (g *Graph) ShortestPathsFromMostClustered(ctx context.Context, unitWeights bool) (source int64, dists map[int64]float64, err error) {
	source, _, err = sqlgraph.MostClusteredVertex(ctx, g.g)
	if err != nil {
		return 0, nil, err
	}
	dists, _, err = g.ShortestPaths(ctx, source, unitWeights)
	return source, dists, err
}

// NearOrImportant returns vertices that are either within maxDist of
// source or have PageRank >= rankThreshold — the §4.2.2 "very near or
// relatively very important" composition.
func (g *Graph) NearOrImportant(ctx context.Context, source int64, maxDist, rankThreshold float64, iterations int) (map[int64]string, error) {
	dists, _, err := g.ShortestPaths(ctx, source, true)
	if err != nil {
		return nil, err
	}
	ranks, _, err := g.PageRank(ctx, iterations)
	if err != nil {
		return nil, err
	}
	out := make(map[int64]string)
	for id, d := range dists {
		if d <= maxDist {
			out[id] = "near"
		}
	}
	for id, r := range ranks {
		if r >= rankThreshold {
			if _, ok := out[id]; ok {
				out[id] = "near+important"
			} else {
				out[id] = "important"
			}
		}
	}
	return out, nil
}

// String renders a short description of the graph.
func (g *Graph) String() string {
	nv, _ := g.NumVertices()
	ne, _ := g.NumEdges()
	return fmt.Sprintf("graph %s (%d vertices, %d edges)", g.g.Name, nv, ne)
}
