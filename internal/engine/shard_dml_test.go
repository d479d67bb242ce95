package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// keyInShard returns the smallest non-negative int64 key that hashes to
// shard s at the given shard count, skipping the keys in skip.
func keyInShard(t *testing.T, shards, s int, skip ...int64) int64 {
	t.Helper()
next:
	for k := int64(0); k < 10000; k++ {
		for _, x := range skip {
			if k == x {
				continue next
			}
		}
		if int(storage.HashValue(storage.Int64(k))%uint64(shards)) == s {
			return k
		}
	}
	t.Fatalf("no key for shard %d of %d", s, shards)
	return 0
}

// shardDump renders every shard of a live table, shard by shard in
// row order, for before/after comparisons.
func shardDump(t *testing.T, db *DB, table string) string {
	t.Helper()
	tbl, err := db.cat.Get(table)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for s := 0; s < tbl.NumShards(); s++ {
		data := tbl.ShardBatch(s)
		fmt.Fprintf(&b, "shard %d:", s)
		for i := 0; i < data.Len(); i++ {
			fmt.Fprintf(&b, " %v", data.Row(i))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestShardKeyUpdateMovesRow: an UPDATE that writes the partition key
// moves the row to the shard its new key hashes to, so a routed lookup
// or DELETE on the new key finds it — in auto-commit, inside a
// committed transaction, and after a durable reopen. A rolled-back
// move leaves the row routable at its old key, and a NOT NULL failure
// on the key changes nothing.
func TestShardKeyUpdateMovesRow(t *testing.T) {
	oldK := keyInShard(t, 4, 0)
	newK := keyInShard(t, 4, 2)
	other := keyInShard(t, 4, 1)
	create := []string{
		"CREATE TABLE t (id INTEGER NOT NULL, v INTEGER) PARTITION BY HASH(id) SHARDS 4",
		fmt.Sprintf("INSERT INTO t VALUES (%d, 7), (%d, 8)", oldK, other),
	}
	move := fmt.Sprintf("UPDATE t SET id = %d WHERE id = %d", newK, oldK)
	lookup := func(db *DB, k int64) []int64 {
		return queryInts(t, db, fmt.Sprintf("SELECT v FROM t WHERE id = %d", k))
	}

	for _, tc := range []struct {
		name  string
		stmts []string
	}{
		{"autocommit", []string{move}},
		{"commit", []string{"BEGIN", move, "COMMIT"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := New()
			mustExec(t, db, create...)
			mustExec(t, db, tc.stmts...)
			if got := lookup(db, newK); len(got) != 1 || got[0] != 7 {
				t.Fatalf("routed lookup of the new key = %v, want [7]", got)
			}
			if got := lookup(db, oldK); len(got) != 0 {
				t.Fatalf("routed lookup of the old key = %v, want none", got)
			}
			if n := countRows(t, db, "t"); n != 2 {
				t.Fatalf("COUNT(*) = %d after the move, want 2", n)
			}
			tbl, _ := db.cat.Get("t")
			if got := tbl.ShardBatch(2).Row(tbl.ShardRows(2) - 1)[0].I; got != newK {
				t.Errorf("last row of the new shard has id %d, want the moved %d", got, newK)
			}
			res, err := db.Exec(fmt.Sprintf("DELETE FROM t WHERE id = %d", newK))
			if err != nil || res.RowsAffected != 1 {
				t.Fatalf("routed DELETE of the new key: affected %d, err %v; want 1", res.RowsAffected, err)
			}
		})
	}

	t.Run("rollback", func(t *testing.T) {
		db := New()
		mustExec(t, db, create...)
		mustExec(t, db, "BEGIN", move, "ROLLBACK")
		if got := lookup(db, oldK); len(got) != 1 || got[0] != 7 {
			t.Fatalf("routed lookup of the old key after ROLLBACK = %v, want [7]", got)
		}
		if got := lookup(db, newK); len(got) != 0 {
			t.Fatalf("routed lookup of the new key after ROLLBACK = %v, want none", got)
		}
	})

	t.Run("null key", func(t *testing.T) {
		db := New()
		mustExec(t, db, create...)
		before := shardDump(t, db, "t")
		_, err := db.Exec(fmt.Sprintf("UPDATE t SET id = NULL WHERE id = %d", oldK))
		if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
			t.Fatalf("SET id = NULL: err = %v, want a NOT NULL violation", err)
		}
		if after := shardDump(t, db, "t"); after != before {
			t.Fatalf("failed UPDATE changed the table:\nbefore\n%safter\n%s", before, after)
		}
	})

	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, create...)
		mustExec(t, db, move)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if got := lookup(db2, newK); len(got) != 1 || got[0] != 7 {
			t.Fatalf("routed lookup of the new key after reopen = %v, want [7]", got)
		}
	})
}

// TestShardFootprintPreImages: a transaction stages pre-images per
// write footprint — here two pinned UPDATEs on different shards of a
// 4-shard table. While it is open, another session reads the
// pre-transaction values of both keys and the unchanged rest, also
// concurrently with the writes; ROLLBACK restores both keys and COMMIT
// publishes both.
func TestShardFootprintPreImages(t *testing.T) {
	k1 := keyInShard(t, 4, 1)
	k3 := keyInShard(t, 4, 3)
	var rest []int64
	for s := 0; s < 4; s++ {
		rest = append(rest, keyInShard(t, 4, s, k1, k3))
	}
	const readAll = "SELECT SUM(v) FROM t"
	for _, end := range []string{"ROLLBACK", "COMMIT"} {
		t.Run(end, func(t *testing.T) {
			db := New()
			mustExec(t, db, "CREATE TABLE t (id INTEGER NOT NULL, v INTEGER) PARTITION BY HASH(id) SHARDS 4")
			var vals []string
			for _, k := range append([]int64{k1, k3}, rest...) {
				vals = append(vals, fmt.Sprintf("(%d, 1)", k))
			}
			mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ", "))

			ctx := context.Background()
			reader := db.NewSession()
			defer reader.Close()
			read := func(q string) int64 {
				rows, err := reader.QueryContext(ctx, q)
				if err != nil {
					t.Error(err)
					return -1
				}
				return rows.Value(0, 0).AsInt()
			}

			writer := db.NewSession()
			defer writer.Close()
			if _, err := writer.ExecContext(ctx, "BEGIN"); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // reads beside the transaction's writes
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got := read(readAll); got != 6 {
						t.Errorf("reader saw SUM(v) = %d during the transaction, want 6", got)
						return
					}
				}
			}()
			for _, k := range []int64{k1, k3} {
				if _, err := writer.ExecContext(ctx, fmt.Sprintf("UPDATE t SET v = 100 WHERE id = %d", k)); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			for _, k := range []int64{k1, k3} {
				if got := read(fmt.Sprintf("SELECT v FROM t WHERE id = %d", k)); got != 1 {
					t.Errorf("reader saw v = %d for key %d of the open transaction, want 1", got, k)
				}
			}
			if got := read(readAll); got != 6 {
				t.Errorf("reader saw SUM(v) = %d, want 6", got)
			}
			if _, err := writer.ExecContext(ctx, end); err != nil {
				t.Fatal(err)
			}
			want := map[string]int64{"ROLLBACK": 1, "COMMIT": 100}[end]
			for _, k := range []int64{k1, k3} {
				if got := read(fmt.Sprintf("SELECT v FROM t WHERE id = %d", k)); got != want {
					t.Errorf("after %s key %d has v = %d, want %d", end, k, got, want)
				}
			}
			if got := read(readAll); got != 4+2*want {
				t.Errorf("after %s SUM(v) = %d, want %d", end, got, 4+2*want)
			}
		})
	}
}
