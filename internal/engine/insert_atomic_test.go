package engine

import (
	"strings"
	"testing"
)

func countRows(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	v, err := db.QueryScalar("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	return v.I
}

// TestInsertSelectCastFailureLeavesNoTornRow: a cast that fails on a
// later column must not leave the earlier columns appended. A torn row
// made the next scan of the table panic.
func TestInsertSelectCastFailureLeavesNoTornRow(t *testing.T) {
	db := New()
	mustExec(t, db,
		"CREATE TABLE t (a INTEGER, b INTEGER)",
		"CREATE TABLE s (a INTEGER, b VARCHAR)",
		"INSERT INTO s VALUES (3, 'x')",
	)
	_, err := db.Exec("INSERT INTO t SELECT a, b FROM s")
	if err == nil || !strings.Contains(err.Error(), `cannot cast "x" to INTEGER`) {
		t.Fatalf("INSERT ... SELECT error = %v, want the failed cast", err)
	}
	if n := countRows(t, db, "t"); n != 0 {
		t.Fatalf("failed INSERT left %d rows", n)
	}
	mustExec(t, db, "INSERT INTO t VALUES (1, 2)")
	if got := queryInts(t, db, "SELECT b FROM t WHERE a = 1"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("table after a failed INSERT: b = %v, want [2]", got)
	}
}

// TestFailedInsertIsStatementAtomic: a multi-row INSERT that fails on a
// later row keeps none of its rows — in memory and after a reopen,
// which replays only the statements that succeeded — on both the
// sharded fast path (INSERT ... VALUES) and the exclusive path
// (INSERT ... SELECT).
func TestFailedInsertIsStatementAtomic(t *testing.T) {
	for _, tc := range []struct {
		name, stmt string
		fast       bool
	}{
		{"exclusive", "INSERT INTO dst SELECT a FROM src", false},
		{"fastpath", "INSERT INTO dst VALUES (10), (NULL)", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db,
				"CREATE TABLE src (a INTEGER)",
				"INSERT INTO src VALUES (1), (2), (NULL), (4)",
				"CREATE TABLE dst (a INTEGER NOT NULL) PARTITION BY HASH(a) SHARDS 4",
			)
			fast := db.obs.Counter("engine.fastpath.taken")
			before := fast.Load()
			if _, err := db.Exec(tc.stmt); err == nil || !strings.Contains(err.Error(), "NOT NULL") {
				t.Fatalf("%s: err = %v, want a NOT NULL violation", tc.stmt, err)
			}
			if took := fast.Load() > before; took != tc.fast {
				t.Fatalf("%s: fast path taken = %v, want %v", tc.stmt, took, tc.fast)
			}
			if n := countRows(t, db, "dst"); n != 0 {
				t.Fatalf("failed INSERT kept %d rows in memory", n)
			}
			mustExec(t, db, "INSERT INTO dst VALUES (7)")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if got := queryInts(t, db2, "SELECT a FROM dst"); len(got) != 1 || got[0] != 7 {
				t.Fatalf("after reopen dst = %v, want [7]", got)
			}
		})
	}
}
