package storage

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// FuzzShardedTable drives a fuzzed operation sequence — appends,
// predicate updates, predicate deletes, truncates, replaces, and
// snapshot/restore round-trips — against a ShardedTable at a fuzzed
// shard count and the same logical operations against a single-shard
// serial oracle. After every op the row counts must agree; at the end
// the two tables must hold the same row multiset, every row must sit
// in the shard its key hashes to, and the shard-major concatenation
// must account for every row. A final phase replays leftover entropy
// as appends from two concurrent goroutines (the latch-free per-shard
// append path) and re-checks the multiset.
func FuzzShardedTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 7, 1, 0, 12, 2, 1, 1, 9, 3, 2, 0, 4})
	f.Add([]byte{15, 0, 1, 0, 2, 0, 3, 5, 3, 200, 201, 202, 6, 0, 250})
	f.Add([]byte{1, 0, 5, 4, 0, 6, 2, 2, 1, 3, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		schema := NewSchema(NotNullCol("id", TypeInt64), Col("v", TypeInt64))
		shards := 1 + int(next())%16
		st := NewShardedTable("f", schema, 0, shards)
		oracle := NewTable("f", schema)
		tables := []*ShardedTable{st, oracle}

		rowVal := func() (Value, Value) {
			id := Int64(int64(int8(next()))) // small signed keys: collisions likely
			v := Int64(int64(next()))
			if next()%4 == 0 {
				v = Null(TypeInt64)
			}
			return id, v
		}
		// matchIdx evaluates the predicate id mod m == r against a
		// table's own shard-major row order — global indexes differ
		// between the sharded table and the oracle for the same logical
		// rows, exactly like the engine matching a WHERE clause per scan.
		matchIdx := func(tb *ShardedTable, m, r int64) []int {
			col := tb.Data().Cols[0]
			var idx []int
			for i := 0; i < col.Len(); i++ {
				if ((col.Value(i).I%m)+m)%m == r {
					idx = append(idx, i)
				}
			}
			return idx
		}

		// matchShard is matchIdx over one shard's rows: the indexes are
		// shard-local.
		matchShard := func(tb *ShardedTable, s int, m, r int64) []int {
			col := tb.ShardBatch(s).Cols[0]
			var idx []int
			for i := 0; i < col.Len(); i++ {
				if ((col.Value(i).I%m)+m)%m == r {
					idx = append(idx, i)
				}
			}
			return idx
		}

		var snaps [2]*Snapshot
		ops := 0
		for pos < len(data) && ops < 200 {
			ops++
			switch next() % 7 {
			case 0: // append one row
				id, v := rowVal()
				for _, tb := range tables {
					if err := tb.AppendRow(id, v); err != nil {
						t.Fatalf("append: %v", err)
					}
				}
			case 1: // NOT NULL violation must reject on both, changing nothing
				for _, tb := range tables {
					if err := tb.AppendRow(Null(TypeInt64), Int64(1)); err == nil {
						t.Fatal("null key accepted")
					}
				}
			case 2: // predicate update of the nullable column
				m := 1 + int64(next()%5)
				r := int64(next()) % m
				nv := Int64(int64(next()))
				for _, tb := range tables {
					idx := matchIdx(tb, m, r)
					vals := make([]Value, len(idx))
					for k := range vals {
						vals[k] = nv
					}
					if err := tb.UpdateInPlace(idx, 1, vals); err != nil {
						t.Fatalf("update: %v", err)
					}
				}
			case 3: // predicate delete, shard by shard like the engine's DELETE
				m := 1 + int64(next()%5)
				r := int64(next()) % m
				for _, tb := range tables {
					for s := 0; s < tb.NumShards(); s++ {
						tb.DeleteShardWhere(s, matchShard(tb, s, m, r))
					}
				}
			case 4: // truncate
				for _, tb := range tables {
					tb.Truncate()
				}
			case 5: // replace contents with a fresh batch
				n := int(next()) % 8
				var newRows [][2]Value
				for i := 0; i < n; i++ {
					id, v := rowVal()
					newRows = append(newRows, [2]Value{id, v})
				}
				// Replace adopts the batch's column storage, so each
				// table needs its own batch — sharing one would alias
				// their columns (the engine builds one per call too).
				for _, tb := range tables {
					b := NewBatch(schema)
					for _, r := range newRows {
						if err := b.AppendRow(r[0], r[1]); err != nil {
							t.Fatalf("batch append: %v", err)
						}
					}
					if err := tb.Replace(b); err != nil {
						t.Fatalf("replace: %v", err)
					}
				}
			case 6: // snapshot, mutate on top, restore — frozen-view COW path
				for i, tb := range tables {
					snaps[i] = tb.Snapshot()
				}
				id, v := rowVal()
				for _, tb := range tables {
					if err := tb.AppendRow(id, v); err != nil {
						t.Fatalf("append over snapshot: %v", err)
					}
				}
				for i, tb := range tables {
					tb.RestoreSnapshot(snaps[i])
				}
			}
			if st.NumRows() != oracle.NumRows() {
				t.Fatalf("op %d: sharded has %d rows, oracle %d", ops, st.NumRows(), oracle.NumRows())
			}
		}
		checkShardAgreesWithOracle(t, st, oracle, shards)

		// Concurrent phase: split the remaining entropy's rows between
		// two goroutines appending to the sharded table at once; the
		// oracle gets them serially. AppendRow only takes the target
		// shard's latch, so this exercises genuinely parallel appends.
		var rows [][2]Value
		for i := 0; i < 32; i++ {
			id, v := rowVal()
			rows = append(rows, [2]Value{id, v})
		}
		var wg sync.WaitGroup
		for half := 0; half < 2; half++ {
			wg.Add(1)
			go func(part [][2]Value) {
				defer wg.Done()
				for _, r := range part {
					_ = st.AppendRow(r[0], r[1])
				}
			}(rows[half*16 : (half+1)*16])
		}
		for _, r := range rows {
			if err := oracle.AppendRow(r[0], r[1]); err != nil {
				t.Fatalf("oracle append: %v", err)
			}
		}
		wg.Wait()
		checkShardAgreesWithOracle(t, st, oracle, shards)
	})
}

// checkShardAgreesWithOracle asserts the sharded table and the oracle
// hold the same row multiset, that each row is placed in the shard its
// key hashes to, and that the per-shard counts sum to the total.
func checkShardAgreesWithOracle(t *testing.T, st, oracle *ShardedTable, shards int) {
	t.Helper()
	render := func(tb *ShardedTable) []string {
		d := tb.Data()
		out := make([]string, d.Len())
		for i := range out {
			r := d.Row(i)
			v := "null"
			if !r[1].Null {
				v = fmt.Sprint(r[1].I)
			}
			out[i] = fmt.Sprintf("%d|%s", r[0].I, v)
		}
		sort.Strings(out)
		return out
	}
	got, want := render(st), render(oracle)
	if len(got) != len(want) {
		t.Fatalf("sharded has %d rows, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row multiset diverged at %d: sharded %q, oracle %q", i, got[i], want[i])
		}
	}
	sum := 0
	for i := 0; i < st.NumShards(); i++ {
		b := st.ShardBatch(i)
		sum += b.Len()
		for r := 0; r < b.Len(); r++ {
			if h := int(HashValue(b.Row(r)[0]) % uint64(shards)); h != i {
				t.Fatalf("row with key %d in shard %d, hashes to %d", b.Row(r)[0].I, i, h)
			}
		}
	}
	if sum != st.NumRows() {
		t.Fatalf("shard rows sum to %d, NumRows is %d", sum, st.NumRows())
	}
}
