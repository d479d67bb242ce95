// Package bench is the experiment harness: it regenerates every
// table/figure of the paper's evaluation (Figure 2a PageRank, Figure 2b
// Shortest Paths, across four systems and three datasets) plus the
// ablation studies for the §2.3 optimizations. cmd/vxbench and the
// root-level Go benchmarks both drive it.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/giraph"
	"repro/internal/graphdb"
	"repro/internal/sqlgraph"
)

// Systems compared in Figure 2.
const (
	SysGraphDB      = "GraphDB"
	SysGiraph       = "Giraph"
	SysVertexica    = "Vertexica"
	SysVertexicaSQL = "Vertexica(SQL)"
)

// Row is one measurement of the Figure 2 grid.
type Row struct {
	Figure  string
	Dataset string
	System  string
	Seconds float64
	Note    string // "DNF" etc.
	// Values is the computed result: rank or distance per vertex (nil
	// when the system did not run). SSSP maps may omit unreachable
	// vertices.
	Values map[int64]float64
	// Supersteps is the superstep count of a BSP system (0 for the
	// graph database and the SQL drivers, which have none).
	Supersteps int
}

// Fig2Config tunes a Figure 2 reproduction run.
type Fig2Config struct {
	// Scale shrinks the paper's dataset sizes (1.0 = full size).
	Scale float64
	// PageRankIters is the number of PageRank iterations (paper: 10).
	PageRankIters int
	// GraphDBEdgeLimit skips the graph-database baseline on datasets
	// with more edges (the paper's Neo4j only completed the smallest
	// graph). 0 means no limit.
	GraphDBEdgeLimit int
	// GiraphOverhead is the modeled per-superstep cluster coordination
	// latency. 0 means the default (80 ms); negative disables.
	GiraphOverhead time.Duration
}

// Defaults fills zero fields.
func (c Fig2Config) withDefaults() Fig2Config {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if c.PageRankIters == 0 {
		c.PageRankIters = 10
	}
	return c
}

// Fig2Datasets generates the three paper-shaped datasets at the scale.
func Fig2Datasets(scale float64) []*dataset.Graph {
	return []*dataset.Graph{
		dataset.TwitterScale(scale),
		dataset.GPlusScale(scale / 2), // GPlus is dense; halve nodes to keep runs bounded
		dataset.LiveJournalScale(scale / 10),
	}
}

// loadVertexica loads a dataset into a fresh engine.
func loadVertexica(ds *dataset.Graph) (*core.Graph, error) {
	db := engine.New()
	g, err := core.CreateGraph(db, "bench")
	if err != nil {
		return nil, err
	}
	edges := make([]core.Edge, len(ds.Edges))
	for i, e := range ds.Edges {
		edges[i] = core.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Type: e.Type, Created: e.Created}
	}
	vals := make(map[int64]string, ds.Nodes)
	for v := int64(0); v < ds.Nodes; v++ {
		vals[v] = ""
	}
	if err := g.BulkLoad(vals, edges); err != nil {
		return nil, err
	}
	return g, nil
}

// loadGiraph loads a dataset into the BSP baseline.
func loadGiraph(ds *dataset.Graph, overhead time.Duration) *giraph.Engine {
	e := giraph.New(giraph.Config{SuperstepOverhead: overhead})
	for v := int64(0); v < ds.Nodes; v++ {
		e.AddVertex(v)
	}
	for _, ed := range ds.Edges {
		e.AddEdge(ed.Src, ed.Dst, ed.Weight)
	}
	return e
}

// loadGraphDB loads a dataset into the transactional baseline.
func loadGraphDB(ds *dataset.Graph) (*graphdb.Store, error) {
	s := graphdb.New()
	rows := make([][3]float64, len(ds.Edges))
	for i, e := range ds.Edges {
		rows[i] = [3]float64{float64(e.Src), float64(e.Dst), e.Weight}
	}
	if err := s.Load(rows); err != nil {
		return nil, err
	}
	return s, nil
}

// timeIt measures fn.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// RunFig2 reproduces one panel of Figure 2 ("pagerank" for 2a, "sssp"
// for 2b) and returns the measurement rows.
func RunFig2(ctx context.Context, panel string, cfg Fig2Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	fig := map[string]string{"pagerank": "2a", "sssp": "2b"}[panel]
	if fig == "" {
		return nil, fmt.Errorf("bench: unknown panel %q (want pagerank or sssp)", panel)
	}
	var rows []Row
	for _, ds := range Fig2Datasets(cfg.Scale) {
		source := ds.MaxOutDegreeNode()

		// Graph database baseline (skipped above the edge limit, like
		// Neo4j in the paper).
		if cfg.GraphDBEdgeLimit > 0 && len(ds.Edges) > cfg.GraphDBEdgeLimit {
			rows = append(rows, Row{Figure: fig, Dataset: ds.Name, System: SysGraphDB, Note: "DNF (over edge limit, as Neo4j in the paper)"})
		} else {
			store, err := loadGraphDB(ds)
			if err != nil {
				return nil, err
			}
			var vals map[int64]float64
			secs, err := timeIt(func() (err error) {
				if panel == "pagerank" {
					vals, err = graphdb.PageRank(store, cfg.PageRankIters, 0.85)
					return err
				}
				vals, err = graphdb.ShortestPaths(store, source, false)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: graphdb on %s: %w", ds.Name, err)
			}
			rows = append(rows, Row{Figure: fig, Dataset: ds.Name, System: SysGraphDB, Seconds: secs, Values: vals})
		}

		// Giraph baseline.
		ge := loadGiraph(ds, cfg.GiraphOverhead)
		var (
			vals   map[int64]float64
			gstats *giraph.Stats
		)
		secs, err := timeIt(func() (err error) {
			if panel == "pagerank" {
				vals, gstats, err = giraph.PageRank(ge, cfg.PageRankIters)
				return err
			}
			vals, gstats, err = giraph.SSSP(ge, source, false)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: giraph on %s: %w", ds.Name, err)
		}
		rows = append(rows, Row{Figure: fig, Dataset: ds.Name, System: SysGiraph, Seconds: secs, Values: vals, Supersteps: gstats.Supersteps})

		// Vertexica vertex-centric.
		vg, err := loadVertexica(ds)
		if err != nil {
			return nil, err
		}
		var vstats *core.RunStats
		secs, err = timeIt(func() (err error) {
			if panel == "pagerank" {
				vals, vstats, err = algorithms.RunPageRank(ctx, vg, cfg.PageRankIters, core.Options{})
				return err
			}
			vals, vstats, err = algorithms.RunSSSP(ctx, vg, source, false, core.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: vertexica on %s: %w", ds.Name, err)
		}
		rows = append(rows, Row{Figure: fig, Dataset: ds.Name, System: SysVertexica, Seconds: secs, Values: vals, Supersteps: vstats.Supersteps})

		// Vertexica SQL.
		secs, err = timeIt(func() (err error) {
			if panel == "pagerank" {
				vals, err = sqlgraph.PageRank(ctx, vg, cfg.PageRankIters, 0.85)
				return err
			}
			vals, err = sqlgraph.ShortestPaths(ctx, vg, source, false)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: vertexica-sql on %s: %w", ds.Name, err)
		}
		rows = append(rows, Row{Figure: fig, Dataset: ds.Name, System: SysVertexicaSQL, Seconds: secs, Values: vals})
	}
	return rows, nil
}

// PrintRows renders measurement rows as the paper-style table.
func PrintRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-22s %-16s %12s  %s\n", "Dataset", "System", "Time (s)", "Note")
	for _, r := range rows {
		if r.Note != "" && r.Seconds == 0 {
			fmt.Fprintf(w, "%-22s %-16s %12s  %s\n", r.Dataset, r.System, "—", r.Note)
			continue
		}
		fmt.Fprintf(w, "%-22s %-16s %12.3f  %s\n", r.Dataset, r.System, r.Seconds, r.Note)
	}
}

// CheckFig2Shape validates the qualitative claims of Figure 2 against
// measured rows: the graph database is slowest (where it ran), the SQL
// path is fastest, and Vertexica(vertex) beats Giraph on the smallest
// dataset. It returns a list of violated expectations (empty = shape
// reproduced).
func CheckFig2Shape(rows []Row) []string {
	byKey := make(map[string]Row)
	datasets := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		byKey[r.Dataset+"/"+r.System] = r
		if !seen[r.Dataset] {
			seen[r.Dataset] = true
			datasets = append(datasets, r.Dataset)
		}
	}
	var violations []string
	for i, ds := range datasets {
		get := func(sys string) (Row, bool) {
			r, ok := byKey[ds+"/"+sys]
			return r, ok && r.Note == ""
		}
		sql, okSQL := get(SysVertexicaSQL)
		vx, okVX := get(SysVertexica)
		gir, okGir := get(SysGiraph)
		gdb, okGDB := get(SysGraphDB)
		if okSQL && okVX && sql.Seconds >= vx.Seconds {
			violations = append(violations, fmt.Sprintf("%s: SQL (%.3fs) not faster than vertex-centric (%.3fs)", ds, sql.Seconds, vx.Seconds))
		}
		if okGDB && okVX && gdb.Seconds <= vx.Seconds {
			violations = append(violations, fmt.Sprintf("%s: graph DB (%.3fs) not slower than Vertexica (%.3fs)", ds, gdb.Seconds, vx.Seconds))
		}
		if i == 0 && okGir && okVX && gir.Seconds <= vx.Seconds {
			violations = append(violations, fmt.Sprintf("%s: Giraph (%.3fs) should lose to Vertexica (%.3fs) on the smallest graph", ds, gir.Seconds, vx.Seconds))
		}
	}
	return violations
}

// CheckFig2Agreement validates what one run can assert exactly: on each
// dataset every system that ran computed the same result as the
// vertex-centric Vertexica run (within 1e-9, relative for large values;
// a vertex absent from an SSSP map is unreachable, i.e. +Inf), and the
// BSP systems took the same number of supersteps. Wall-clock orderings
// need repeated runs and live in the benchmark, not here. It returns
// the disagreements (empty = the four systems agree).
func CheckFig2Agreement(rows []Row) []string {
	refs := make(map[string]Row)
	for _, r := range rows {
		if r.System == SysVertexica {
			refs[r.Dataset] = r
		}
	}
	var bad []string
	for _, r := range rows {
		ref, ok := refs[r.Dataset]
		if r.System == SysVertexica || r.Values == nil {
			continue
		}
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no %s run to compare %s against", r.Dataset, SysVertexica, r.System))
			continue
		}
		if r.Supersteps != 0 && r.Supersteps != ref.Supersteps {
			bad = append(bad, fmt.Sprintf("%s: %s took %d supersteps, %s %d", r.Dataset, r.System, r.Supersteps, ref.System, ref.Supersteps))
		}
		if id, want, got, ok := firstDisagreement(ref.Values, r.Values); !ok {
			bad = append(bad, fmt.Sprintf("%s: %s gives vertex %d %v, %s %v", r.Dataset, r.System, id, got, ref.System, want))
		}
	}
	return bad
}

// firstDisagreement compares two per-vertex results over the union of
// their vertices, in ascending id order.
func firstDisagreement(want, got map[int64]float64) (id int64, w, g float64, ok bool) {
	ids := make([]int64, 0, len(want)+len(got))
	for v := range want {
		ids = append(ids, v)
	}
	for v := range got {
		if _, dup := want[v]; !dup {
			ids = append(ids, v)
		}
	}
	slices.Sort(ids)
	value := func(m map[int64]float64, v int64) float64 {
		if x, ok := m[v]; ok {
			return x
		}
		return math.Inf(1)
	}
	for _, v := range ids {
		w, g := value(want, v), value(got, v)
		if w == g || (!math.IsInf(w, 0) && math.Abs(w-g) <= 1e-9*math.Max(1, math.Abs(w))) {
			continue
		}
		return v, w, g, false
	}
	return 0, 0, 0, true
}
