// Package sqlgraph contains the hand-coded, hand-optimized SQL
// implementations of graph algorithms — the "Vertexica (SQL)" system of
// the paper's Figure 2 and the five SQL graph algorithms of its toolbar
// (PageRank, shortest paths, triangle counting, strong overlap, weak
// ties), plus connected components and clustering coefficients used by
// the hybrid queries.
//
// Each iterative algorithm is a small Go driver that ping-pongs two
// scratch tables with pure SQL per iteration; the scan/join/aggregate
// work all happens inside the relational engine on typed DOUBLE/INTEGER
// columns, which is why this path outperforms the string-codec vertex
// path, as in the paper.
package sqlgraph

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// infDist is the sentinel for "unreached" in SQL shortest paths (keeps
// the relaxation joins NULL-free, which is both simpler and faster).
const infDist = 1.0e18

// cleanup drops scratch tables, ignoring errors for missing ones. It
// survives the caller's cancellation (scratch tables must go away even
// when the run was cancelled) but keeps the context's values — in
// particular the write-gate marker, so a cleanup issued under the
// facade's gate does not try to re-acquire it.
func cleanup(ctx context.Context, db *engine.DB, names ...string) {
	ctx = context.WithoutCancel(ctx)
	for _, n := range names {
		_, _ = db.ExecContext(ctx, "DROP TABLE IF EXISTS "+n)
	}
}

// PageRank computes ranks with pure SQL: a degree table, then per
// iteration one join-aggregate that gathers rank/outdeg contributions
// along edges, left-joined back to the vertex set so rankless vertices
// keep the teleport mass. Conventions match algorithms.PageRank exactly
// (damping 0.85 unless overridden, no dangling redistribution).
// Cancelling ctx aborts between statements and inside each statement's
// executor (per result batch).
func PageRank(ctx context.Context, g *core.Graph, iterations int, damping float64) (map[int64]float64, error) {
	db := g.DB
	if damping == 0 {
		damping = 0.85
	}
	n, err := g.NumVertices()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return map[int64]float64{}, nil
	}
	pra := g.Name + "_sqlpr_a"
	prb := g.Name + "_sqlpr_b"
	deg := g.Name + "_sqlpr_deg"
	cleanup(ctx, db, pra, prb, deg)
	defer cleanup(ctx, db, pra, prb, deg)

	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INTEGER NOT NULL, rank DOUBLE NOT NULL)", pra),
		fmt.Sprintf("CREATE TABLE %s (id INTEGER NOT NULL, rank DOUBLE NOT NULL)", prb),
		fmt.Sprintf("CREATE TABLE %s (id INTEGER NOT NULL, deg INTEGER NOT NULL)", deg),
		fmt.Sprintf("INSERT INTO %s SELECT src, COUNT(*) FROM %s GROUP BY src", deg, g.EdgeTable()),
		fmt.Sprintf("INSERT INTO %s SELECT id, 1.0 / %d FROM %s", pra, n, g.VertexTable()),
	}
	if err := execAll(ctx, db, "pagerank", stmts); err != nil {
		return nil, err
	}

	cur, next := pra, prb
	for it := 0; it < iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		step := fmt.Sprintf(`INSERT INTO %[1]s
			SELECT v.id, %[4]g / %[5]d + %[6]g * COALESCE(s.acc, 0.0)
			FROM %[2]s AS v LEFT JOIN (
				SELECT e.dst AS id, SUM(p.rank / d.deg) AS acc
				FROM %[3]s AS e
				JOIN %[7]s AS p ON e.src = p.id
				JOIN %[8]s AS d ON e.src = d.id
				GROUP BY e.dst
			) AS s ON v.id = s.id`,
			next, g.VertexTable(), g.EdgeTable(), 1-damping, n, damping, cur, deg)
		if _, err := db.ExecContext(ctx, step); err != nil {
			return nil, fmt.Errorf("sqlgraph: pagerank iteration %d: %w", it, err)
		}
		if _, err := db.ExecContext(ctx, "TRUNCATE "+cur); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	return readFloatMap(ctx, db, fmt.Sprintf("SELECT id, rank FROM %s", cur))
}

// ShortestPaths computes single-source shortest distances via iterated
// SQL relaxation: each round joins the frontier distances with the edge
// table, takes the per-destination MIN, and keeps the smaller of old
// and new. It stops at the first round with no improvement. Unreachable
// vertices are absent from the result map. Cancelling ctx aborts
// between and inside iterations.
func ShortestPaths(ctx context.Context, g *core.Graph, source int64, unitWeights bool) (map[int64]float64, error) {
	db := g.DB
	da := g.Name + "_sqlsp_a"
	dbl := g.Name + "_sqlsp_b"
	cleanup(ctx, db, da, dbl)
	defer cleanup(ctx, db, da, dbl)

	weightExpr := "CASE WHEN e.weight IS NULL OR e.weight <= 0.0 THEN 1.0 ELSE e.weight END"
	if unitWeights {
		weightExpr = "1.0"
	}

	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INTEGER NOT NULL, dist DOUBLE NOT NULL)", da),
		fmt.Sprintf("CREATE TABLE %s (id INTEGER NOT NULL, dist DOUBLE NOT NULL)", dbl),
		fmt.Sprintf("INSERT INTO %s SELECT id, CASE WHEN id = %d THEN 0.0 ELSE %g END FROM %s",
			da, source, infDist, g.VertexTable()),
	}
	if err := execAll(ctx, db, "sssp", stmts); err != nil {
		return nil, err
	}
	maxIters, err := g.NumVertices()
	if err != nil {
		return nil, err
	}
	cur, err := fixpoint(ctx, db, "sssp", "dist", da, dbl, maxIters, func(next, cur string) string {
		return fmt.Sprintf(`INSERT INTO %[1]s
			SELECT c.id, CASE WHEN m.nd IS NULL OR c.dist <= m.nd THEN c.dist ELSE m.nd END
			FROM %[2]s AS c LEFT JOIN (
				SELECT e.dst AS id, MIN(f.dist + %[4]s) AS nd
				FROM %[3]s AS e JOIN %[2]s AS f ON e.src = f.id
				WHERE f.dist < %[5]g
				GROUP BY e.dst
			) AS m ON c.id = m.id`,
			next, cur, g.EdgeTable(), weightExpr, infDist)
	})
	if err != nil {
		return nil, err
	}
	return readFloatMap(ctx, db, fmt.Sprintf("SELECT id, dist FROM %s WHERE dist < %g", cur, infDist))
}

// ConnectedComponents labels vertices with the minimum reachable id via
// iterated SQL label propagation (expects a symmetrized edge table for
// weak connectivity, like the vertex-centric version). Cancelling ctx
// aborts between and inside iterations.
func ConnectedComponents(ctx context.Context, g *core.Graph) (map[int64]int64, error) {
	db := g.DB
	la := g.Name + "_sqlcc_a"
	lb := g.Name + "_sqlcc_b"
	cleanup(ctx, db, la, lb)
	defer cleanup(ctx, db, la, lb)

	stmts := []string{
		fmt.Sprintf("CREATE TABLE %s (id INTEGER NOT NULL, label INTEGER NOT NULL)", la),
		fmt.Sprintf("CREATE TABLE %s (id INTEGER NOT NULL, label INTEGER NOT NULL)", lb),
		fmt.Sprintf("INSERT INTO %s SELECT id, id FROM %s", la, g.VertexTable()),
	}
	if err := execAll(ctx, db, "wcc", stmts); err != nil {
		return nil, err
	}
	maxIters, err := g.NumVertices()
	if err != nil {
		return nil, err
	}
	cur, err := fixpoint(ctx, db, "wcc", "label", la, lb, maxIters, func(next, cur string) string {
		return fmt.Sprintf(`INSERT INTO %[1]s
			SELECT c.id, CASE WHEN m.nl IS NULL OR c.label <= m.nl THEN c.label ELSE m.nl END
			FROM %[2]s AS c LEFT JOIN (
				SELECT e.dst AS id, MIN(l.label) AS nl
				FROM %[3]s AS e JOIN %[2]s AS l ON e.src = l.id
				GROUP BY e.dst
			) AS m ON c.id = m.id`,
			next, cur, g.EdgeTable())
	})
	if err != nil {
		return nil, err
	}
	rows, err := db.QueryContext(ctx, fmt.Sprintf("SELECT id, label FROM %s", cur))
	if err != nil {
		return nil, err
	}
	out := make(map[int64]int64, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		out[rows.Value(i, 0).I] = rows.Value(i, 1).I
	}
	return out, nil
}

// execAll runs an algorithm's setup statements in order.
func execAll(ctx context.Context, db *engine.DB, algo string, stmts []string) error {
	for _, s := range stmts {
		if _, err := db.ExecContext(ctx, s); err != nil {
			return fmt.Errorf("sqlgraph: %s setup: %w", algo, err)
		}
	}
	return nil
}

// fixpoint is the relaxation loop ShortestPaths and ConnectedComponents
// share. Each round inserts step(next, cur) into the empty table next,
// counts the vertices whose col dropped below their value in cur,
// truncates cur and swaps the two; it stops after the first round that
// improves nothing, or after maxIters+1 rounds. It returns the table
// holding the final values.
func fixpoint(ctx context.Context, db *engine.DB, algo, col, cur, next string, maxIters int64, step func(next, cur string) string) (string, error) {
	for it := int64(0); it <= maxIters; it++ {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		if _, err := db.ExecContext(ctx, step(next, cur)); err != nil {
			return "", fmt.Errorf("sqlgraph: %s iteration %d: %w", algo, it, err)
		}
		improved, err := db.QueryScalarContext(ctx, fmt.Sprintf(
			"SELECT COUNT(*) FROM %s AS n JOIN %s AS c ON n.id = c.id WHERE n.%s < c.%s", next, cur, col, col))
		if err != nil {
			return "", err
		}
		if _, err := db.ExecContext(ctx, "TRUNCATE "+cur); err != nil {
			return "", err
		}
		cur, next = next, cur
		if improved.I == 0 {
			break
		}
	}
	return cur, nil
}

// readFloatMap materializes an (id, float) query into a map.
func readFloatMap(ctx context.Context, db *engine.DB, q string) (map[int64]float64, error) {
	rows, err := db.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make(map[int64]float64, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		id := rows.Value(i, 0)
		v := rows.Value(i, 1)
		if id.Null || v.Null {
			continue
		}
		out[id.I] = v.AsFloat()
	}
	return out, nil
}
