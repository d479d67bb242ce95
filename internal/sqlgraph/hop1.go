package sqlgraph

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// The 1-hop analyses of §3.2: queries over a vertex's immediate
// neighborhood that are awkward for vertex-centric execution (the
// neighborhood must first be gathered via messages) but natural in SQL
// as self-joins. All of them expect a symmetrized edge table (each
// undirected edge stored in both directions), which is how the paper's
// undirected SNAP graphs load. Each takes the caller's context: a
// self-join over a large edge table runs for seconds, and cancelling
// ctx (or its statement_timeout) stops it mid-join.

// TriangleCount returns the number of distinct triangles using the
// classic ordered three-way self-join: a triangle (a < b < c) is
// counted once via edges (a,b), (b,c), (a,c).
func TriangleCount(ctx context.Context, g *core.Graph) (int64, error) {
	q := fmt.Sprintf(`SELECT COUNT(*) FROM %[1]s AS e1, %[1]s AS e2, %[1]s AS e3
		WHERE e1.dst = e2.src AND e2.dst = e3.dst AND e1.src = e3.src
		AND e1.src < e1.dst AND e2.src < e2.dst AND e3.src < e3.dst`,
		g.EdgeTable())
	v, err := g.DB.QueryScalarContext(ctx, q)
	if err != nil {
		return 0, fmt.Errorf("sqlgraph: triangle count: %w", err)
	}
	return v.I, nil
}

// TriangleCountPerNode returns, for every vertex with at least one
// triangle, the number of triangles it participates in.
func TriangleCountPerNode(ctx context.Context, g *core.Graph) (map[int64]int64, error) {
	q := fmt.Sprintf(`SELECT e1.src AS id, COUNT(*) AS tri
		FROM %[1]s AS e1
		JOIN %[1]s AS e2 ON e1.src = e2.src AND e1.dst < e2.dst
		JOIN %[1]s AS e3 ON e3.src = e1.dst AND e3.dst = e2.dst
		GROUP BY e1.src`, g.EdgeTable())
	rows, err := g.DB.QueryContext(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("sqlgraph: per-node triangles: %w", err)
	}
	out := make(map[int64]int64, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		out[rows.Value(i, 0).I] = rows.Value(i, 1).I
	}
	return out, nil
}

// OverlapPair is a pair of vertices with their common-neighbor count.
type OverlapPair struct {
	A, B   int64
	Common int64
}

// StrongOverlap finds pairs of vertices sharing at least minCommon
// neighbors (§3.2 "Strong Overlap"), ordered by descending overlap.
func StrongOverlap(ctx context.Context, g *core.Graph, minCommon int64) ([]OverlapPair, error) {
	q := fmt.Sprintf(`SELECT e1.src AS a, e2.src AS b, COUNT(*) AS common
		FROM %[1]s AS e1 JOIN %[1]s AS e2 ON e1.dst = e2.dst AND e1.src < e2.src
		GROUP BY e1.src, e2.src
		HAVING COUNT(*) >= %d
		ORDER BY common DESC, a, b`, g.EdgeTable(), minCommon)
	rows, err := g.DB.QueryContext(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("sqlgraph: strong overlap: %w", err)
	}
	out := make([]OverlapPair, rows.Len())
	for i := range out {
		out[i] = OverlapPair{
			A:      rows.Value(i, 0).I,
			B:      rows.Value(i, 1).I,
			Common: rows.Value(i, 2).I,
		}
	}
	return out, nil
}

// WeakTie is a vertex bridging otherwise-disconnected neighbor pairs.
type WeakTie struct {
	ID    int64
	Pairs int64 // neighbor pairs not directly connected
}

// WeakTies finds vertices whose neighborhoods contain at least minPairs
// pairs of neighbors with no direct edge between them — the "bridges"
// of §3.2. Implemented as neighbor-pair enumeration anti-joined against
// the edge table.
func WeakTies(ctx context.Context, g *core.Graph, minPairs int64) ([]WeakTie, error) {
	q := fmt.Sprintf(`SELECT e1.src AS id, COUNT(*) AS pairs
		FROM %[1]s AS e1
		JOIN %[1]s AS e2 ON e1.src = e2.src AND e1.dst < e2.dst
		LEFT JOIN %[1]s AS e3 ON e3.src = e1.dst AND e3.dst = e2.dst
		WHERE e3.src IS NULL
		GROUP BY e1.src
		HAVING COUNT(*) >= %d
		ORDER BY pairs DESC, id`, g.EdgeTable(), minPairs)
	rows, err := g.DB.QueryContext(ctx, q)
	if err != nil {
		return nil, fmt.Errorf("sqlgraph: weak ties: %w", err)
	}
	out := make([]WeakTie, rows.Len())
	for i := range out {
		out[i] = WeakTie{ID: rows.Value(i, 0).I, Pairs: rows.Value(i, 1).I}
	}
	return out, nil
}

// ClusteringCoefficients computes the local clustering coefficient of
// every vertex with degree ≥ 2: 2·tri(v) / (deg(v)·(deg(v)−1)).
func ClusteringCoefficients(ctx context.Context, g *core.Graph) (map[int64]float64, error) {
	tri, err := TriangleCountPerNode(ctx, g)
	if err != nil {
		return nil, err
	}
	rows, err := g.DB.QueryContext(ctx, fmt.Sprintf(
		"SELECT src, COUNT(*) FROM %s GROUP BY src", g.EdgeTable()))
	if err != nil {
		return nil, err
	}
	out := make(map[int64]float64)
	for i := 0; i < rows.Len(); i++ {
		id := rows.Value(i, 0).I
		deg := rows.Value(i, 1).I
		if deg < 2 {
			continue
		}
		out[id] = 2 * float64(tri[id]) / float64(deg*(deg-1))
	}
	return out, nil
}

// MostClusteredVertex returns the vertex with the maximum local
// clustering coefficient — the hybrid-query source selector from §3.2
// ("shortest path from the most clustered node"). Ties break to the
// smaller id.
func MostClusteredVertex(ctx context.Context, g *core.Graph) (int64, float64, error) {
	ccs, err := ClusteringCoefficients(ctx, g)
	if err != nil {
		return 0, 0, err
	}
	if len(ccs) == 0 {
		return 0, 0, fmt.Errorf("sqlgraph: no vertex has degree >= 2")
	}
	bestID, bestCC := int64(-1), -1.0
	for id, cc := range ccs {
		if cc > bestCC || (cc == bestCC && id < bestID) {
			bestID, bestCC = id, cc
		}
	}
	return bestID, bestCC, nil
}

// GlobalClusteringCoefficient is 3·triangles / open+closed wedges.
func GlobalClusteringCoefficient(ctx context.Context, g *core.Graph) (float64, error) {
	tris, err := TriangleCount(ctx, g)
	if err != nil {
		return 0, err
	}
	wedges, err := g.DB.QueryScalarContext(ctx, fmt.Sprintf(
		`SELECT SUM(d.deg * (d.deg - 1)) / 2.0 FROM
		 (SELECT src, COUNT(*) AS deg FROM %s GROUP BY src) AS d`, g.EdgeTable()))
	if err != nil {
		return 0, err
	}
	if wedges.Null || wedges.AsFloat() == 0 {
		return 0, nil
	}
	return 3 * float64(tris) / wedges.AsFloat(), nil
}
