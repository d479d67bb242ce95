package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	vertexica "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/storage"
)

// Every workload's engine holds the same two relations, so every layer
// probe runs the same statement texts everywhere: an edge-shaped table
// (the graph's own edge table, the analytic fact table, or the served
// edge table) and a node dimension keyed by the edges' dst.
const (
	edgeTable = "vx_edge"
	nodeTable = "vx_node"
	graphName = "vx" // core names the graph's edge table <graph>_edge

	tableShards = 8
	nodeGroups  = 64
	batchRows   = 4096

	pointSQL  = "SELECT dst FROM " + edgeTable + " WHERE src = $1"
	onehopSQL = "SELECT d.label FROM " + edgeTable + " e JOIN " + nodeTable + " d ON d.id = e.dst WHERE e.src = $1"
	streamSQL = "SELECT src, dst, weight, etype, created FROM " + edgeTable
	aggSQL    = "SELECT src, COUNT(*), SUM(weight) FROM " + edgeTable + " WHERE weight > 2.5 GROUP BY src"
	joinSQL   = "SELECT d.grp, COUNT(*), SUM(e.weight) FROM " + edgeTable + " e JOIN " + nodeTable + " d ON d.id = e.dst GROUP BY d.grp"
	sortSQL   = "SELECT src, dst, created FROM " + edgeTable + " ORDER BY created, src"
	scanSQL   = "SELECT COUNT(*) FROM " + edgeTable
	filterSQL = "SELECT COUNT(*) FROM " + edgeTable + " WHERE weight > 5.0"

	createEdgeSQL = "CREATE TABLE %s (src INTEGER NOT NULL, dst INTEGER NOT NULL, weight DOUBLE, etype VARCHAR, created INTEGER) PARTITION BY HASH(src) SHARDS %d"
	createNodeSQL = "CREATE TABLE " + nodeTable + " (id INTEGER NOT NULL, label VARCHAR, grp INTEGER)"
)

// spillGrant is the per-statement memory grant of the out-of-core runs,
// the same 64 KiB the engine's force-spill test matrix uses.
const spillGrant = 64 << 10

// newEngine opens an engine (durable when dir is set) with every degree
// of parallelism pinned, so numbers measure the program and not the
// scheduler.
func newEngine(cfg *config, dir string) (*vertexica.Engine, error) {
	var eng *vertexica.Engine
	if dir == "" {
		eng = vertexica.New()
	} else {
		var err error
		if eng, err = vertexica.Open(dir); err != nil {
			return nil, err
		}
	}
	eng.SetParallelism(cfg.pin)
	eng.SetWorkerBudget(cfg.pin)
	return eng, nil
}

func edgeBatch(schema storage.Schema, rows []dataset.Edge) (*storage.Batch, error) {
	b := storage.NewBatch(schema)
	for _, e := range rows {
		if err := b.AppendRow(storage.Int64(e.Src), storage.Int64(e.Dst), storage.Float64(e.Weight),
			storage.Str(e.Type), storage.Int64(e.Created)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendEdges bulk-loads rows into an edge-shaped table through
// Table.AppendBatch, one executor-sized batch at a time.
func appendEdges(eng *vertexica.Engine, table string, rows []dataset.Edge) error {
	t, err := eng.DB().Catalog().Get(table)
	if err != nil {
		return err
	}
	for from := 0; from < len(rows); from += batchRows {
		to := min(from+batchRows, len(rows))
		b, err := edgeBatch(t.Schema(), rows[from:to])
		if err != nil {
			return err
		}
		if err := t.AppendBatch(b); err != nil {
			return err
		}
	}
	return nil
}

func nodeLabel(id int64) string { return fmt.Sprintf("v%05d", id) }

// createNodes creates and fills the node dimension in process.
func createNodes(eng *vertexica.Engine, nodes int64) error {
	if _, _, err := eng.SQL(createNodeSQL); err != nil {
		return err
	}
	t, err := eng.DB().Catalog().Get(nodeTable)
	if err != nil {
		return err
	}
	b := storage.NewBatch(t.Schema())
	for id := int64(0); id < nodes; id++ {
		if err := b.AppendRow(storage.Int64(id), storage.Str(nodeLabel(id)), storage.Int64(id%nodeGroups)); err != nil {
			return err
		}
	}
	return t.AppendBatch(b)
}

// insertSQL renders rows as one multi-row INSERT. Weights are printed
// with every digit so the loaded table equals the generated rows.
func insertSQL(table string, rows []dataset.Edge) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + table + " VALUES ")
	for i, e := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		sb.WriteString(strconv.FormatInt(e.Src, 10))
		sb.WriteString(", ")
		sb.WriteString(strconv.FormatInt(e.Dst, 10))
		sb.WriteString(", ")
		sb.WriteString(strconv.FormatFloat(e.Weight, 'f', -1, 64))
		sb.WriteString(", '" + e.Type + "', ")
		sb.WriteString(strconv.FormatInt(e.Created, 10))
		sb.WriteByte(')')
	}
	return sb.String()
}

func insertNodesSQL(from, to int64) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + nodeTable + " VALUES ")
	for id := from; id < to; id++ {
		if id > from {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, '%s', %d)", id, nodeLabel(id), id%nodeGroups)
	}
	return sb.String()
}

// --- reference results the oracles compare against ---

func outDegrees(nodes int64, edges []dataset.Edge) []int32 {
	deg := make([]int32, nodes)
	for _, e := range edges {
		deg[e.Src]++
	}
	return deg
}

// refPageRank is the plain-Go reference for both runtimes' convention:
// every vertex starts at 1/N, each round sets rank to (1-d)/N + d·Σ of
// rank/outdegree over in-edges, and dangling mass is not redistributed.
func refPageRank(nodes int64, edges []dataset.Edge, iterations int) []float64 {
	const d = 0.85
	n := float64(nodes)
	deg := outDegrees(nodes, edges)
	rank := make([]float64, nodes)
	next := make([]float64, nodes)
	for i := range rank {
		rank[i] = 1 / n
	}
	for it := 0; it < iterations; it++ {
		for i := range next {
			next[i] = 0
		}
		for _, e := range edges {
			next[e.Dst] += rank[e.Src] / float64(deg[e.Src])
		}
		for i := range next {
			next[i] = (1-d)/n + d*next[i]
		}
		rank, next = next, rank
	}
	return rank
}

// adjacency is the edge list in compressed sparse rows.
type adjacency struct {
	start []int32 // start[v]..start[v+1] index dst
	dst   []int64
}

func newAdjacency(nodes int64, edges []dataset.Edge) *adjacency {
	a := &adjacency{start: make([]int32, nodes+1), dst: make([]int64, len(edges))}
	for i, d := range outDegrees(nodes, edges) {
		a.start[i+1] = a.start[i] + d
	}
	fill := append([]int32(nil), a.start[:nodes]...)
	for _, e := range edges {
		a.dst[fill[e.Src]] = e.Dst
		fill[e.Src]++
	}
	return a
}

// bfs returns unit-weight distances from source (-1 = unreachable) and
// the depth of the deepest reached vertex.
func (a *adjacency) bfs(source int64) (dist []int32, depth int32) {
	dist = make([]int32, len(a.start)-1)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	for frontier := []int64{source}; len(frontier) > 0; {
		var next []int64
		for _, u := range frontier {
			for _, v := range a.dst[a.start[u]:a.start[u+1]] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return dist, depth
}

// ssspSource picks the shortest-paths source and returns the reference
// distances from it: the highest-out-degree vertex whose search is
// targetDepth levels deep. The SQL runtime's cost is one join per level,
// so a depth that changed with the seed would make seeds incomparable;
// the best-connected vertices of these graphs reach depth 4, 5 or 6, and
// the first at 5 is taken (the plain max-out-degree vertex if none is).
func ssspSource(ds *dataset.Graph) (source int64, dist []int32) {
	const targetDepth, candidates = 5, 16
	adj := newAdjacency(ds.Nodes, ds.Edges)
	deg := outDegrees(ds.Nodes, ds.Edges)
	tried := map[int64]bool{}
	for c := 0; c < candidates; c++ {
		best := int64(-1)
		for id, d := range deg {
			if !tried[int64(id)] && (best < 0 || d > deg[best]) {
				best = int64(id)
			}
		}
		if best < 0 {
			break
		}
		tried[best] = true
		if d, depth := adj.bfs(best); depth == targetDepth {
			return best, d
		}
	}
	source = ds.MaxOutDegreeNode()
	dist, _ = adj.bfs(source)
	return source, dist
}

func checkRanks(got map[int64]float64, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d ranks, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[int64(id)]
		if !ok || math.Abs(g-w) > 1e-9 {
			return fmt.Errorf("pagerank: vertex %d rank %g, want %g", id, g, w)
		}
	}
	return nil
}

// checkDists accepts either runtime's convention for an unreachable
// vertex: absent, or +Inf.
func checkDists(got map[int64]float64, want []int32) error {
	for id, w := range want {
		g, ok := got[int64(id)]
		switch {
		case w < 0 && ok && !math.IsInf(g, 1):
			return fmt.Errorf("sssp: vertex %d reached at %g, want unreachable", id, g)
		case w >= 0 && (!ok || g != float64(w)):
			return fmt.Errorf("sssp: vertex %d distance %g, want %d", id, g, w)
		}
	}
	return nil
}

// sqlOracle holds what the three analytic queries must return, computed
// from the generated rows.
type sqlOracle struct {
	rows     int
	aggCount map[int64]int64
	aggSum   map[int64]float64
	joinCnt  [nodeGroups]int64
	joinSum  [nodeGroups]float64
	sumSrc   int64
	sumDst   int64
	sumTime  int64
}

func newSQLOracle(rows []dataset.Edge) *sqlOracle {
	o := &sqlOracle{rows: len(rows), aggCount: map[int64]int64{}, aggSum: map[int64]float64{}}
	for _, e := range rows {
		if e.Weight > 2.5 {
			o.aggCount[e.Src]++
			o.aggSum[e.Src] += e.Weight
		}
		o.joinCnt[e.Dst%nodeGroups]++
		o.joinSum[e.Dst%nodeGroups] += e.Weight
		o.sumSrc += e.Src
		o.sumDst += e.Dst
		o.sumTime += e.Created
	}
	return o
}

// closeTo compares float sums whose addition order differs.
func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func ints(c storage.Column) []int64 {
	if ic, ok := c.(*storage.Int64Column); ok {
		return ic.Int64s()
	}
	out := make([]int64, c.Len())
	for i := range out {
		out[i] = c.Value(i).AsInt()
	}
	return out
}

func floats(c storage.Column) []float64 {
	if fc, ok := c.(*storage.Float64Column); ok {
		return fc.Float64s()
	}
	out := make([]float64, c.Len())
	for i := range out {
		out[i] = c.Value(i).AsFloat()
	}
	return out
}

func (o *sqlOracle) checkAgg(b *storage.Batch) error {
	if b.Len() != len(o.aggCount) {
		return fmt.Errorf("agg: %d groups, want %d", b.Len(), len(o.aggCount))
	}
	src, cnt, sum := ints(b.Cols[0]), ints(b.Cols[1]), floats(b.Cols[2])
	for i := range src {
		if cnt[i] != o.aggCount[src[i]] || !closeTo(sum[i], o.aggSum[src[i]]) {
			return fmt.Errorf("agg: src %d got (%d, %g), want (%d, %g)", src[i], cnt[i], sum[i], o.aggCount[src[i]], o.aggSum[src[i]])
		}
	}
	return nil
}

func (o *sqlOracle) checkJoin(b *storage.Batch) error {
	if b.Len() != nodeGroups {
		return fmt.Errorf("join: %d groups, want %d", b.Len(), nodeGroups)
	}
	grp, cnt, sum := ints(b.Cols[0]), ints(b.Cols[1]), floats(b.Cols[2])
	for i, g := range grp {
		if g < 0 || g >= nodeGroups || cnt[i] != o.joinCnt[g] || !closeTo(sum[i], o.joinSum[g]) {
			return fmt.Errorf("join: grp %d got (%d, %g)", g, cnt[i], sum[i])
		}
	}
	return nil
}

// sortCheck verifies an ORDER BY created, src stream batch by batch: the
// keys never decrease, and the row count and column sums match.
type sortCheck struct {
	rows                    int
	sumSrc, sumDst, sumTime int64
	lastTime, lastSrc       int64
	outOfOrder              bool
}

func (c *sortCheck) add(b *storage.Batch) {
	src, dst, created := ints(b.Cols[0]), ints(b.Cols[1]), ints(b.Cols[2])
	for i := range src {
		if c.rows > 0 && (created[i] < c.lastTime || (created[i] == c.lastTime && src[i] < c.lastSrc)) {
			c.outOfOrder = true
		}
		c.lastTime, c.lastSrc = created[i], src[i]
		c.rows++
		c.sumSrc += src[i]
		c.sumDst += dst[i]
		c.sumTime += created[i]
	}
}

func (o *sqlOracle) checkSort(c *sortCheck) error {
	if c.outOfOrder {
		return fmt.Errorf("sort: rows out of order")
	}
	if c.rows != o.rows || c.sumSrc != o.sumSrc || c.sumDst != o.sumDst || c.sumTime != o.sumTime {
		return fmt.Errorf("sort: %d rows with sums (%d, %d, %d), want %d rows (%d, %d, %d)",
			c.rows, c.sumSrc, c.sumDst, c.sumTime, o.rows, o.sumSrc, o.sumDst, o.sumTime)
	}
	return nil
}

// loadGraph bulk-loads a dataset as graph `name` sharing ds's edges.
func loadGraph(eng *vertexica.Engine, ds *dataset.Graph, name string) (*vertexica.Graph, error) {
	named := *ds
	named.Name = name
	return eng.LoadDataset(&named)
}

func graphOptions(cfg *config) core.Options { return core.Options{Workers: cfg.pin} }

// scalarInt runs a one-row, one-column query in process.
func scalarInt(ctx context.Context, eng *vertexica.Engine, q string) (int64, error) {
	v, err := eng.DB().QueryScalarContext(ctx, q)
	if err != nil {
		return 0, err
	}
	return v.AsInt(), nil
}
