package engine

import (
	"fmt"
	"sort"
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
// (INSERT ... SELECT). A multi-shard UPDATE whose SET fails only on a
// row of the last shard it evaluates changes no shard either, on the
// fast path (auto-commit), on the exclusive path (inside a
// transaction), and when the SET writes the partition key.
func TestFailedInsertIsStatementAtomic(t *testing.T) {
	var seed []int64 // one row per shard of dst
	for s := 0; s < 4; s++ {
		seed = append(seed, keyInShard(t, 4, s))
	}
	failLast := func(otherwise string) string {
		return fmt.Sprintf("CASE WHEN a = %d THEN CAST(NULL AS INTEGER) ELSE %s END", seed[3], otherwise)
	}
	for _, tc := range []struct {
		name, stmt string
		fast, txn  bool
	}{
		{"exclusive", "INSERT INTO dst SELECT a, a FROM src", false, false},
		{"fastpath", "INSERT INTO dst VALUES (10, 10), (NULL, 1)", true, false},
		{"update_fastpath", "UPDATE dst SET b = " + failLast("b + 1"), true, false},
		{"update_txn", "UPDATE dst SET b = " + failLast("b + 1"), false, true},
		{"update_moves_key", "UPDATE dst SET a = " + failLast("a + 1000"), true, false},
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
				"CREATE TABLE dst (a INTEGER NOT NULL, b INTEGER NOT NULL) PARTITION BY HASH(a) SHARDS 4",
				fmt.Sprintf("INSERT INTO dst VALUES (%d, 0), (%d, 1), (%d, 2), (%d, 3)", seed[0], seed[1], seed[2], seed[3]),
			)
			before := shardDump(t, db, "dst")
			if tc.txn {
				mustExec(t, db, "BEGIN")
			}
			fast := db.obs.Counter("engine.fastpath.taken")
			took := fast.Load()
			if _, err := db.Exec(tc.stmt); err == nil || !strings.Contains(err.Error(), "NOT NULL") {
				t.Fatalf("%s: err = %v, want a NOT NULL violation", tc.stmt, err)
			}
			if got := fast.Load() > took; got != tc.fast {
				t.Fatalf("%s: fast path taken = %v, want %v", tc.stmt, got, tc.fast)
			}
			if after := shardDump(t, db, "dst"); after != before {
				t.Fatalf("failed statement changed dst:\nbefore\n%safter\n%s", before, after)
			}
			if tc.txn {
				mustExec(t, db, "COMMIT")
			}
			mustExec(t, db, "INSERT INTO dst VALUES (7, 7)")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			want := append(append([]int64(nil), seed...), 7)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if got := queryInts(t, db2, "SELECT a FROM dst ORDER BY a"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after reopen dst = %v, want %v", got, want)
			}
		})
	}
}
