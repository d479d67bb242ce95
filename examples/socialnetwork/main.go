// Social-network analysis: the paper's §3.2 hybrid queries and §3.4
// relational pre-/post-processing on a metadata-rich graph — select a
// subgraph by edge type, count triangles, find strong overlaps and weak
// ties, combine weak ties with PageRank ("important bridges"), and
// aggregate results with SQL — the end-to-end pipeline of Figure 3.
package main

import (
	"context"
	"fmt"
	"log"

	"strconv"

	vertexica "repro"
)

func main() {
	vx := vertexica.New()
	ctx := context.Background()

	// A symmetrized social graph with §4 metadata (edge types
	// family/friend/classmate, weights, timestamps; 60 vertex attrs).
	ds := vertexica.MakeUndirected(vertexica.ErdosRenyi("soc", 300, 1800, 7))
	g, err := vx.LoadDatasetWithMetadata(ds, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded", g)

	// --- 1-hop SQL analyses (§3.2) ---
	tri, err := g.TriangleCount()
	if err != nil {
		log.Fatal(err)
	}
	gcc, err := g.GlobalClusteringCoefficient()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles: %d   global clustering coefficient: %.4f\n", tri, gcc)

	overlaps, err := g.StrongOverlap(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strong-overlap pairs (>=4 common neighbors): %d", len(overlaps))
	if len(overlaps) > 0 {
		fmt.Printf("   strongest: (%d,%d) share %d", overlaps[0].A, overlaps[0].B, overlaps[0].Common)
	}
	fmt.Println()

	// --- hybrid: weak ties that are also important (§3.2) ---
	bridges, err := g.ImportantBridges(ctx, 10, 1.0/300, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("important bridges (>=10 open pairs, rank >= mean): %d\n", len(bridges))

	// --- hybrid: SSSP from the most clustered vertex (§3.2) ---
	src, dists, err := g.ShortestPathsFromMostClustered(ctx, true)
	if err != nil {
		log.Fatal(err)
	}
	reach := 0
	for _, d := range dists {
		if d < 1e17 {
			reach++
		}
	}
	fmt.Printf("SSSP from most-clustered vertex %d reaches %d vertices\n", src, reach)

	// --- Figure 3's dataflow: selection → algorithm → aggregation ---
	// Scope the analysis to "family" edges, run PageRank on that
	// subgraph, and post-process the ranks in SQL.
	fam, err := vx.CreateGraph("family_net")
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []string{
		`INSERT INTO family_net_edge
		 SELECT src, dst, weight, etype, created FROM soc_edge WHERE etype = 'family'`,
		// The graph is symmetric: every kept vertex is a kept edge's source.
		`INSERT INTO family_net_vertex
		 SELECT DISTINCT v.id, v.value, FALSE
		 FROM soc_vertex AS v JOIN family_net_edge AS e ON v.id = e.src`,
	} {
		if _, _, err := vx.SQL(q); err != nil {
			log.Fatal(err)
		}
	}
	if _, _, err := fam.PageRank(ctx, 10); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfamily-only subgraph:", fam)
	top, _, err := vx.SQL(`SELECT id, CAST(value AS DOUBLE) AS rank
		FROM family_net_vertex ORDER BY rank DESC, id LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < top.Len(); i++ {
		fmt.Printf("  top vertex %4d rank %.5f\n", top.Value(i, 0).I, top.Value(i, 1).F)
	}
	// A 5-bucket histogram of the ranks: bucket width from MIN/MAX, the
	// top rank folded into the last bucket.
	const buckets = 5
	span, _, err := vx.SQL(`SELECT MIN(CAST(value AS DOUBLE)), MAX(CAST(value AS DOUBLE)) FROM family_net_vertex`)
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := span.Value(0, 0).F, span.Value(0, 1).F
	width := (hi - lo) / buckets
	hist, _, err := vx.SQL(fmt.Sprintf(`
		SELECT b, COUNT(*) AS n FROM (
			SELECT CASE WHEN r >= %[2]s THEN %[4]d
			            ELSE CAST(FLOOR((r - %[1]s) / %[3]s) AS INTEGER) END AS b
			FROM (SELECT CAST(value AS DOUBLE) AS r FROM family_net_vertex) AS ranks
		) AS bucketed
		GROUP BY b ORDER BY b`, sqlFloat(lo), sqlFloat(hi), sqlFloat(width), buckets-1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  rank distribution:")
	for i := 0; i < hist.Len(); i++ {
		b := float64(hist.Value(i, 0).I)
		fmt.Printf("    [%.5f, %.5f): %d\n", lo+b*width, lo+(b+1)*width, hist.Value(i, 1).I)
	}

	// --- ad-hoc relational post-processing over metadata (§3.4) ---
	rows, _, err := vx.SQL(`
		SELECT m.u0, COUNT(*) AS members, AVG(m.f0) AS avg_f0
		FROM soc_vertex_meta AS m
		GROUP BY m.u0 ORDER BY members DESC`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmetadata aggregation (group by binary attribute u0):")
	for i := 0; i < rows.Len(); i++ {
		fmt.Printf("  u0=%s: %s members, avg f0 %.3f\n",
			rows.Value(i, 0), rows.Value(i, 1), rows.Value(i, 2).AsFloat())
	}
}

// sqlFloat renders f as a SQL numeric literal.
func sqlFloat(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }
