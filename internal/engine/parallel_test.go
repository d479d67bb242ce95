package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
)

// The parallelism property: every plan produces identical rows — same
// values, same order — with Parallelism=1 and Parallelism=8. The
// executor's morsel design makes parallel execution deterministic
// (fragment-ordered gather, key-partitioned aggregation), so the
// comparison below is exact, not merely set-equal after sorting.

// corpusDB builds the property-test database: the sqlfeatures tables
// plus generated tables large enough for the planner to actually split
// morsels (MinMorselRows is lowered for the duration).
func corpusDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db,
		"CREATE TABLE people (id INTEGER NOT NULL, name VARCHAR, age INTEGER, score DOUBLE, vip BOOLEAN)",
		`INSERT INTO people VALUES
			(1, 'ada', 36, 9.5, TRUE),
			(2, 'bob', 25, 4.5, FALSE),
			(3, 'cyd', NULL, 7.25, FALSE),
			(4, 'dee', 25, NULL, TRUE)`,
		"CREATE TABLE big (id INTEGER NOT NULL, grp INTEGER, val DOUBLE, tag VARCHAR)",
		"CREATE TABLE edges (src INTEGER NOT NULL, dst INTEGER NOT NULL, w DOUBLE NOT NULL)",
		"CREATE TABLE ranks (id INTEGER NOT NULL, rank DOUBLE NOT NULL)",
	)
	rng := rand.New(rand.NewSource(20260726))
	big, err := db.Catalog().Get("big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		grp := storage.Int64(int64(rng.Intn(37)))
		if rng.Intn(50) == 0 {
			grp = storage.Null(storage.TypeInt64)
		}
		val := storage.Float64(rng.NormFloat64() * 10)
		if rng.Intn(40) == 0 {
			val = storage.Null(storage.TypeFloat64)
		}
		if err := big.AppendRow(storage.Int64(int64(i)), grp, val,
			storage.Str(fmt.Sprintf("t%d", rng.Intn(5)))); err != nil {
			t.Fatal(err)
		}
	}
	et, err := db.Catalog().Get("edges")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := db.Catalog().Get("ranks")
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 600
	for i := 0; i < 3000; i++ {
		if err := et.AppendRow(storage.Int64(int64(rng.Intn(nodes))),
			storage.Int64(int64(rng.Intn(nodes))),
			storage.Float64(0.5+rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < nodes; v++ {
		if err := rt.AppendRow(storage.Int64(int64(v)), storage.Float64(rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// featureCorpus is the query corpus: every construct the sqlfeatures
// tests cover, re-run over both the small fixture and the generated
// tables, plus graph-algorithm-shaped joins and aggregates.
var featureCorpus = []string{
	// sqlfeatures constructs over the small fixture.
	`SELECT name, CASE WHEN age IS NULL THEN 'unknown' WHEN age < 30 THEN 'young' ELSE 'adult' END AS bucket FROM people ORDER BY id`,
	`SELECT COUNT(*) FROM people WHERE name LIKE '%d%'`,
	`SELECT COUNT(*) FROM people WHERE age IN (25, 36)`,
	`SELECT COUNT(*) FROM people WHERE age NOT IN (25)`,
	`SELECT COUNT(*) FROM people WHERE score BETWEEN 5.0 AND 10.0`,
	`SELECT COUNT(*) FROM people WHERE NOT vip AND score > 5.0`,
	`SELECT CAST(score AS INTEGER) FROM people WHERE id = 3`,
	`SELECT name || '!' FROM people ORDER BY 1`,
	`SELECT COUNT(*), COUNT(age), AVG(age), MIN(score), MAX(score) FROM people`,
	`SELECT vip, age, COUNT(*) AS c FROM people GROUP BY vip, age ORDER BY 3 DESC, 2`,
	`SELECT id, age FROM people ORDER BY age, id DESC`,
	`SELECT UPPER(SUBSTR(name, 1, 2)) FROM people ORDER BY id`,
	`SELECT a.name, b.name FROM people a JOIN people b ON a.age = b.age AND a.id < b.id`,
	`SELECT 1 / 4`,
	// Scans, filters and projections over the generated table.
	`SELECT id, val * 2.0 + 1.0 FROM big WHERE val > 0.0`,
	`SELECT id, tag FROM big WHERE tag LIKE 't%' AND id % 7 = 0`,
	`SELECT DISTINCT tag FROM big ORDER BY tag`,
	`SELECT id FROM big WHERE grp IS NULL ORDER BY id`,
	`SELECT id, COALESCE(val, 0.0) FROM big ORDER BY id LIMIT 100 OFFSET 37`,
	// Aggregation: int64 fast path, NULL keys, multi-key, DISTINCT, HAVING.
	`SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) FROM big GROUP BY grp`,
	`SELECT grp, tag, COUNT(*) FROM big GROUP BY grp, tag`,
	`SELECT tag, COUNT(DISTINCT grp) FROM big GROUP BY tag ORDER BY tag`,
	`SELECT grp, SUM(val) AS s FROM big GROUP BY grp HAVING COUNT(*) > 100`,
	`SELECT COUNT(*), SUM(val) FROM big`,
	// Joins: fast path (single int key), left join, multi-key, residual.
	`SELECT COUNT(*) FROM edges e JOIN ranks r ON e.src = r.id`,
	`SELECT e.dst, SUM(r.rank / e.w) AS acc FROM edges e JOIN ranks r ON e.src = r.id GROUP BY e.dst`,
	`SELECT r.id, COUNT(e.src) FROM ranks r LEFT JOIN edges e ON r.id = e.src GROUP BY r.id`,
	`SELECT COUNT(*) FROM edges a JOIN edges b ON a.dst = b.src AND a.src < b.dst`,
	`SELECT COUNT(*) FROM edges a JOIN edges b ON a.src = b.src AND a.dst = b.dst`,
	// The PageRank iteration shape: left join against a grouped subquery.
	`SELECT v.id, 0.15 / 600 + 0.85 * COALESCE(s.acc, 0.0) AS nr
		FROM ranks v LEFT JOIN (
			SELECT e.dst AS id, SUM(p.rank / d.deg) AS acc
			FROM edges e
			JOIN ranks p ON e.src = p.id
			JOIN (SELECT src, COUNT(*) AS deg FROM edges GROUP BY src) AS d ON e.src = d.src
			GROUP BY e.dst
		) AS s ON v.id = s.id`,
	// Set operations, CTEs, derived tables.
	`SELECT id FROM big WHERE id < 50 UNION ALL SELECT id FROM big WHERE id >= 3950`,
	`WITH hot AS (SELECT grp, COUNT(*) AS c FROM big GROUP BY grp)
		SELECT h.grp, h.c FROM hot h WHERE h.c > 90 ORDER BY h.c DESC, h.grp`,
	`SELECT t.tag, t.c FROM (SELECT tag, COUNT(*) AS c FROM big GROUP BY tag) AS t ORDER BY t.tag`,
}

// diffRows compares two results exactly: schema, cardinality, and
// every value (NULLs and float bits included).
func diffRows(q string, a, b *Rows) error {
	if got, want := len(a.Columns()), len(b.Columns()); got != want {
		return fmt.Errorf("%s: column count %d vs %d", q, got, want)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("%s: row count %d vs %d", q, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < len(a.Columns()); j++ {
			av, bv := a.Value(i, j), b.Value(i, j)
			if av.Null != bv.Null {
				return fmt.Errorf("%s: row %d col %d: NULL mismatch (%v vs %v)", q, i, j, av, bv)
			}
			if !av.Null && storage.Compare(av, bv) != 0 {
				return fmt.Errorf("%s: row %d col %d: %v vs %v", q, i, j, av, bv)
			}
		}
	}
	return nil
}

func TestParallelismInvariance(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 64
	defer func() { exec.MinMorselRows = oldMorsels }()

	db := corpusDB(t)
	for _, q := range featureCorpus {
		db.SetParallelism(1)
		serial, err := db.Query(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		for _, w := range []int{2, 8} {
			db.SetParallelism(w)
			parallel, err := db.Query(q)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", w, q, err)
			}
			if err := diffRows(q, parallel, serial); err != nil {
				t.Errorf("workers=%d: %v", w, err)
			}
		}
	}
}

// TestParallelPlansActuallyParallelize guards the rewrite itself: with
// a lowered morsel threshold, a filtered scan must plan as a Gather,
// not silently stay serial.
func TestParallelPlansActuallyParallelize(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 64
	defer func() { exec.MinMorselRows = oldMorsels }()

	db := corpusDB(t)
	db.SetParallelism(4)
	st, err := sql.Parse("SELECT id, val FROM big WHERE val > 0.0")
	if err != nil {
		t.Fatal(err)
	}
	op, err := db.planner.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*exec.Gather); !ok {
		t.Fatalf("plan root = %T, want *exec.Gather", op)
	}
}

// TestQueryContextCancellation asserts cancellation lands inside a
// statement: a context cancelled mid-query aborts the scan.
func TestQueryContextCancellation(t *testing.T) {
	db := corpusDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM big"); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryContext after cancel: err = %v, want context.Canceled", err)
	}
	if _, err := db.ExecContext(ctx, "DELETE FROM big WHERE id = 0"); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecContext after cancel: err = %v, want context.Canceled", err)
	}
	// A deadline that expires mid-statement must abort the cross join
	// (600×3000 rows probed row-at-a-time) long before completion. The
	// join build must not be starved first by a VXDB_WORK_MEM seed — the
	// test is about cancellation, not memory accounting.
	db.SetWorkMem(0)
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := db.QueryContext(ctx2, "SELECT COUNT(*) FROM edges a, big b WHERE a.w < b.val")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline query: err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; should abort mid-statement", elapsed)
	}
}
