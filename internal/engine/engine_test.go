package engine

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
}

func mustExec(t *testing.T, db *DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
	}
}

func queryInts(t *testing.T, db *DB, q string) []int64 {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	out := make([]int64, rows.Len())
	for i := range out {
		out[i] = rows.Value(i, 0).AsInt()
	}
	return out
}

func newGraphDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db,
		"CREATE TABLE vertex (id INTEGER NOT NULL, value VARCHAR)",
		"CREATE TABLE edge (src INTEGER NOT NULL, dst INTEGER NOT NULL, weight DOUBLE)",
		"INSERT INTO vertex VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')",
		"INSERT INTO edge VALUES (1, 2, 1.0), (2, 3, 0.5), (3, 1, 2.0), (1, 3, 1.5), (4, 1, 1.0)",
	)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newGraphDB(t)
	got := queryInts(t, db, "SELECT id FROM vertex ORDER BY id")
	want := []int64{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v", got)
		}
	}
}

func TestWhereAndProjection(t *testing.T) {
	db := newGraphDB(t)
	rows, err := db.Query("SELECT src, dst FROM edge WHERE weight > 0.9 ORDER BY src, dst")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 {
		t.Fatalf("rows = %d, want 4", rows.Len())
	}
	if rows.Columns()[0] != "src" || rows.Columns()[1] != "dst" {
		t.Errorf("columns = %v", rows.Columns())
	}
}

func TestJoinQuery(t *testing.T) {
	db := newGraphDB(t)
	rows, err := db.Query(`SELECT v.value FROM edge AS e JOIN vertex AS v ON e.dst = v.id
		WHERE e.src = 1 ORDER BY v.value`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Value(0, 0).S != "b" || rows.Value(1, 0).S != "c" {
		t.Fatalf("join wrong: %d rows", rows.Len())
	}
}

func TestGroupByOutDegree(t *testing.T) {
	db := newGraphDB(t)
	rows, err := db.Query("SELECT src, COUNT(*) AS outdeg FROM edge GROUP BY src ORDER BY src")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 {
		t.Fatalf("groups = %d", rows.Len())
	}
	if rows.Value(0, 1).I != 2 { // src=1 has 2 out-edges
		t.Errorf("outdeg(1) = %v", rows.Value(0, 1))
	}
}

func TestHavingAndAggregateExpr(t *testing.T) {
	db := newGraphDB(t)
	rows, err := db.Query(`SELECT src FROM edge GROUP BY src HAVING COUNT(*) > 1 ORDER BY src`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Value(0, 0).I != 1 {
		t.Fatalf("having wrong: %d rows", rows.Len())
	}
	v, err := db.QueryScalar("SELECT SUM(weight) / COUNT(*) FROM edge")
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 6.0/5.0 {
		t.Errorf("avg weight = %v", v)
	}
}

func TestUnionAllQuery(t *testing.T) {
	db := newGraphDB(t)
	got := queryInts(t, db, "SELECT src FROM edge UNION ALL SELECT dst FROM edge")
	if len(got) != 10 {
		t.Fatalf("union rows = %d", len(got))
	}
}

func TestCTEAndDerivedTable(t *testing.T) {
	db := newGraphDB(t)
	rows, err := db.Query(`WITH deg AS (SELECT src, COUNT(*) AS d FROM edge GROUP BY src)
		SELECT v.id, deg.d FROM vertex AS v JOIN deg ON v.id = deg.src ORDER BY v.id`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 || rows.Value(0, 1).I != 2 {
		t.Fatalf("cte join wrong: %d rows", rows.Len())
	}
	v, err := db.QueryScalar("SELECT MAX(t.d) FROM (SELECT src, COUNT(*) AS d FROM edge GROUP BY src) AS t")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 {
		t.Errorf("max degree = %v", v)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newGraphDB(t)
	res, err := db.Exec("UPDATE vertex SET value = 'z' WHERE id > 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Errorf("updated %d rows", res.RowsAffected)
	}
	v, _ := db.QueryScalar("SELECT COUNT(*) FROM vertex WHERE value = 'z'")
	if v.I != 2 {
		t.Error("update did not apply")
	}
	res, err = db.Exec("DELETE FROM edge WHERE weight < 1.0")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Errorf("deleted %d rows", res.RowsAffected)
	}
}

func TestInsertSelectAndColumnSubset(t *testing.T) {
	db := newGraphDB(t)
	mustExec(t, db, "CREATE TABLE hub (id INTEGER, outdeg INTEGER)")
	mustExec(t, db, "INSERT INTO hub SELECT src, COUNT(*) FROM edge GROUP BY src")
	v, _ := db.QueryScalar("SELECT COUNT(*) FROM hub")
	if v.I != 4 {
		t.Errorf("insert-select rows = %v", v)
	}
	// Column-subset insert leaves unlisted columns NULL.
	mustExec(t, db, "INSERT INTO hub (id) VALUES (99)")
	rows, _ := db.Query("SELECT outdeg FROM hub WHERE id = 99")
	if rows.Len() != 1 || !rows.Value(0, 0).Null {
		t.Error("unlisted column should be NULL")
	}
}

func TestNotNullEnforced(t *testing.T) {
	db := newGraphDB(t)
	if _, err := db.Exec("INSERT INTO vertex VALUES (NULL, 'x')"); err == nil {
		t.Error("NOT NULL insert should fail")
	}
	if _, err := db.Exec("UPDATE vertex SET id = NULL WHERE id = 1"); err == nil {
		t.Error("NOT NULL update should fail")
	}
}

func TestTransactionRollback(t *testing.T) {
	db := newGraphDB(t)
	mustExec(t, db,
		"BEGIN",
		"UPDATE vertex SET value = 'mutated'",
		"DELETE FROM edge",
		"CREATE TABLE scratch (x INTEGER)",
		"DROP TABLE vertex",
		"ROLLBACK",
	)
	v, err := db.QueryScalar("SELECT COUNT(*) FROM vertex WHERE value = 'a'")
	if err != nil {
		t.Fatalf("vertex table gone after rollback: %v", err)
	}
	if v.I != 1 {
		t.Error("update not rolled back")
	}
	v, _ = db.QueryScalar("SELECT COUNT(*) FROM edge")
	if v.I != 5 {
		t.Error("delete not rolled back")
	}
	if db.Catalog().Has("scratch") {
		t.Error("created table should vanish on rollback")
	}
}

func TestTransactionCommit(t *testing.T) {
	db := newGraphDB(t)
	mustExec(t, db, "BEGIN", "DELETE FROM edge WHERE src = 1", "COMMIT")
	v, _ := db.QueryScalar("SELECT COUNT(*) FROM edge")
	if v.I != 3 {
		t.Errorf("edges after commit = %v", v)
	}
	if _, err := db.Exec("COMMIT"); err == nil {
		t.Error("commit without begin should fail")
	}
}

func TestUDFFromSQL(t *testing.T) {
	db := newGraphDB(t)
	err := db.RegisterUDF(&expr.ScalarFunc{
		Name: "damping", MinArgs: 1, MaxArgs: 1,
		ReturnType: func([]storage.Type) (storage.Type, error) { return storage.TypeFloat64, nil },
		Eval: expr.NullSafe(storage.TypeFloat64, func(a []storage.Value) (storage.Value, error) {
			return storage.Float64(0.15 + 0.85*a[0].AsFloat()), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.QueryScalar("SELECT DAMPING(1.0)")
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 1.0 {
		t.Errorf("damping(1) = %v", v)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db,
		"CREATE TABLE vertex (id INTEGER NOT NULL, value VARCHAR, rank DOUBLE, active BOOLEAN)",
		"INSERT INTO vertex VALUES (1, 'a', 0.25, TRUE), (2, NULL, 0.75, FALSE)",
	)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO vertex VALUES (3, 'c', 0.5, TRUE)") // lands in WAL only
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, err := db2.QueryScalar("SELECT COUNT(*) FROM vertex")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 3 {
		t.Fatalf("recovered %v rows, want 3 (snapshot + WAL replay)", v)
	}
	rows, err := db2.Query("SELECT value, rank, active FROM vertex WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Value(0, 0).Null || rows.Value(0, 1).F != 0.75 || rows.Value(0, 2).Bool() {
		t.Errorf("recovered row 2 wrong: %v", rows.Row(0))
	}
}

func TestRecoveryIgnoresTornWALRecord(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (x INTEGER)", "INSERT INTO t VALUES (1)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the WAL tail with a torn record: a length prefix promising
	// more bytes than exist.
	walPath := filepath.Join(dir, "wal.sql")
	f, err := openAppend(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 'S', 'E'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery should survive a torn WAL tail: %v", err)
	}
	defer db2.Close()
	v, err := db2.QueryScalar("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 1 {
		t.Errorf("recovered %v rows, want 1", v)
	}
}

// TestWALFailureFailsWrites closes the log file underneath a durable
// DB: a write whose WAL append fails must not be acknowledged, on the
// fast path or the exclusive path. The failure is sticky: a later write
// is refused even once the file works again, so no record lands after
// a torn one.
func TestWALFailureFailsWrites(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db,
		"CREATE TABLE src (a INTEGER)",
		"CREATE TABLE dst (a INTEGER NOT NULL) PARTITION BY HASH(a) SHARDS 4",
	)
	if err := db.wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	fast := db.obs.Counter("engine.fastpath.taken")
	for _, tc := range []struct {
		name, stmt string
		fast       bool
	}{
		{"fast path", "INSERT INTO dst VALUES (1), (2)", true},
		{"exclusive path", "INSERT INTO src SELECT a FROM dst", false},
		{"later write", "INSERT INTO dst VALUES (3)", true},
	} {
		if tc.name == "later write" {
			// A working file again: only the sticky error can refuse it.
			f, err := openAppend(db.wal.path)
			if err != nil {
				t.Fatal(err)
			}
			db.wal.f = f
		}
		before := fast.Load()
		if _, err := db.Exec(tc.stmt); err == nil {
			t.Errorf("%s: %s acknowledged after its WAL append failed", tc.name, tc.stmt)
		}
		if took := fast.Load() > before; took != tc.fast {
			t.Errorf("%s: fast path taken = %v, want %v", tc.name, took, tc.fast)
		}
	}
}

func TestExecRejectsGarbage(t *testing.T) {
	db := New()
	if _, err := db.Exec("FLY ME TO THE MOON"); err == nil {
		t.Error("garbage should fail to parse")
	}
	if _, err := db.Query("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("Query should reject non-SELECT")
	}
	if _, err := db.Query("SELECT * FROM missing"); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	v, err := db.QueryScalar("SELECT 2 + 3 * 4")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 14 {
		t.Errorf("scalar = %v", v)
	}
}

func TestOrderByOrdinalAndAlias(t *testing.T) {
	db := newGraphDB(t)
	got := queryInts(t, db, "SELECT id AS n FROM vertex ORDER BY n DESC")
	if got[0] != 4 {
		t.Error("order by alias failed")
	}
	got = queryInts(t, db, "SELECT id FROM vertex ORDER BY 1 DESC")
	if got[0] != 4 {
		t.Error("order by ordinal failed")
	}
}

func TestDistinctQuery(t *testing.T) {
	db := newGraphDB(t)
	got := queryInts(t, db, "SELECT DISTINCT src FROM edge ORDER BY src")
	if len(got) != 4 {
		t.Errorf("distinct srcs = %v", got)
	}
}
