package storage

import (
	"testing"
	"testing/quick"
)

func vertexSchema() Schema {
	return NewSchema(NotNullCol("id", TypeInt64), Col("value", TypeString), Col("halted", TypeBool))
}

func TestTableAppendAndScan(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	if err := tb.AppendRow(Int64(1), Str("0.25"), Bool(false)); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow(Int64(2), Null(TypeString), Bool(true)); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tb.NumRows())
	}
	d := tb.Data()
	if d.Row(0)[0].I != 1 || d.Row(1)[0].I != 2 {
		t.Error("scan order wrong")
	}
	if !d.Row(1)[1].Null {
		t.Error("null not preserved")
	}
}

func TestTableNotNullConstraint(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	if err := tb.AppendRow(Null(TypeInt64), Str("x"), Bool(false)); err == nil {
		t.Fatal("NOT NULL violation not caught")
	}
	if tb.NumRows() != 0 {
		t.Error("failed insert must not leave partial rows")
	}
}

func TestTableArityMismatch(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	if err := tb.AppendRow(Int64(1)); err == nil {
		t.Error("arity mismatch not caught")
	}
}

func TestTableReplace(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	_ = tb.AppendRow(Int64(1), Str("a"), Bool(false))
	nb := NewBatch(vertexSchema())
	_ = nb.AppendRow(Int64(10), Str("b"), Bool(true))
	_ = nb.AppendRow(Int64(11), Str("c"), Bool(false))
	if err := tb.Replace(nb); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 || tb.Data().Row(0)[0].I != 10 {
		t.Error("replace did not swap contents")
	}
}

func TestTableReplaceTypeMismatch(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	bad := NewBatch(NewSchema(Col("id", TypeString), Col("value", TypeString), Col("halted", TypeBool)))
	if err := tb.Replace(bad); err == nil {
		t.Error("type mismatch in Replace not caught")
	}
}

func TestTableUpdateInPlace(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	for i := int64(0); i < 5; i++ {
		_ = tb.AppendRow(Int64(i), Str("old"), Bool(false))
	}
	if err := tb.UpdateInPlace([]int{1, 3}, 1, []Value{Str("new1"), Str("new3")}); err != nil {
		t.Fatal(err)
	}
	d := tb.Data()
	if d.Row(1)[1].S != "new1" || d.Row(3)[1].S != "new3" || d.Row(2)[1].S != "old" {
		t.Error("in-place update wrong rows")
	}
}

func TestTableDeleteWhere(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	for i := int64(0); i < 6; i++ {
		_ = tb.AppendRow(Int64(i), Str("v"), Bool(false))
	}
	tb.DeleteShardWhere(0, []int{0, 2, 4})
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", tb.NumRows())
	}
	d := tb.Data()
	want := []int64{1, 3, 5}
	for i, w := range want {
		if d.Row(i)[0].I != w {
			t.Errorf("row %d id = %d, want %d", i, d.Row(i)[0].I, w)
		}
	}

	// On a sharded table each shard drops only its own local rows, and
	// the survivors keep their order within the shard.
	st := NewShardedTable("vertex", vertexSchema(), 0, 4)
	for i := int64(0); i < 40; i++ {
		_ = st.AppendRow(Int64(i), Str("v"), Bool(false))
	}
	for s := 0; s < st.NumShards(); s++ {
		st.DeleteShardWhere(s, []int{0})
	}
	if st.NumRows() != 36 {
		t.Fatalf("sharded rows = %d, want 36", st.NumRows())
	}
	for s := 0; s < st.NumShards(); s++ {
		ids := st.ShardBatch(s).Cols[0]
		for i := 1; i < ids.Len(); i++ {
			if ids.Value(i).I <= ids.Value(i-1).I {
				t.Fatalf("shard %d out of insertion order after delete", s)
			}
		}
	}
}

func TestTableSnapshotRestore(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	_ = tb.AppendRow(Int64(1), Str("a"), Bool(false))
	snap := tb.Snapshot()
	if err := tb.UpdateInPlace([]int{0}, 1, []Value{Str("mutated")}); err != nil {
		t.Fatal(err)
	}
	if snap.Data().Row(0)[1].S != "a" {
		t.Error("snapshot observed an in-place update")
	}
	tb.RestoreSnapshot(snap)
	if tb.Data().Row(0)[1].S != "a" {
		t.Error("RestoreSnapshot did not restore the pre-image")
	}
	// The restored table must not adopt the snapshot's column objects:
	// later appends and updates stay invisible to the pinned view.
	_ = tb.AppendRow(Int64(2), Str("b"), Bool(false))
	if err := tb.UpdateInPlace([]int{0}, 1, []Value{Str("again")}); err != nil {
		t.Fatal(err)
	}
	if snap.NumRows() != 1 || snap.Data().Row(0)[1].S != "a" {
		t.Error("pinned snapshot drifted after restore + writes")
	}
}

func TestTableTruncate(t *testing.T) {
	tb := NewTable("vertex", vertexSchema())
	_ = tb.AppendRow(Int64(1), Str("a"), Bool(false))
	tb.Truncate()
	if tb.NumRows() != 0 {
		t.Error("truncate left rows")
	}
	// Table must still be usable.
	if err := tb.AppendRow(Int64(2), Str("b"), Bool(true)); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionInt64Complete(t *testing.T) {
	f := func(vals []int64) bool {
		const n = 7
		parts := PartitionInt64(vals, n)
		seen := 0
		for p, idxs := range parts {
			for _, i := range idxs {
				if i < 0 || i >= len(vals) {
					return false
				}
				// Same value must always land in the same partition.
				if int(HashInt64(vals[i])%n) != p {
					return false
				}
				seen++
			}
		}
		return seen == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionSingle(t *testing.T) {
	parts := PartitionInt64([]int64{9, 8, 7}, 1)
	if len(parts) != 1 || len(parts[0]) != 3 {
		t.Fatal("single partition must keep all rows")
	}
	for i, idx := range parts[0] {
		if idx != i {
			t.Error("single partition must preserve order")
		}
	}
}

func TestHashDeterminism(t *testing.T) {
	if HashInt64(12345) != HashInt64(12345) || HashString("abc") != HashString("abc") {
		t.Error("hash must be deterministic")
	}
	if HashValue(Int64(7)) != HashValue(Float64(7.0)) {
		t.Error("integral float must hash like int for join keys")
	}
}

func TestSortBatch(t *testing.T) {
	s := NewSchema(Col("k", TypeInt64), Col("v", TypeString))
	b := NewBatch(s)
	_ = b.AppendRow(Int64(3), Str("c"))
	_ = b.AppendRow(Int64(1), Str("a"))
	_ = b.AppendRow(Int64(2), Str("b"))
	_ = b.AppendRow(Int64(1), Str("a2"))
	sorted := SortBatch(b, []SortKey{{Col: 0}})
	want := []int64{1, 1, 2, 3}
	for i, w := range want {
		if sorted.Row(i)[0].I != w {
			t.Fatalf("row %d = %d, want %d", i, sorted.Row(i)[0].I, w)
		}
	}
	// Stability: the two k=1 rows keep input order.
	if sorted.Row(0)[1].S != "a" || sorted.Row(1)[1].S != "a2" {
		t.Error("sort is not stable")
	}
	desc := SortBatch(b, []SortKey{{Col: 0, Desc: true}})
	if desc.Row(0)[0].I != 3 {
		t.Error("descending sort wrong")
	}
}

func TestBatchGatherSliceConcat(t *testing.T) {
	s := NewSchema(Col("k", TypeInt64))
	b := NewBatch(s)
	for i := int64(0); i < 10; i++ {
		_ = b.AppendRow(Int64(i))
	}
	g := b.Gather([]int{9, 0})
	if g.Len() != 2 || g.Row(0)[0].I != 9 {
		t.Error("batch gather wrong")
	}
	sl := b.Slice(2, 5)
	if sl.Len() != 3 || sl.Row(0)[0].I != 2 {
		t.Error("batch slice wrong")
	}
	if err := Concat(g, sl); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 || g.Row(4)[0].I != 4 {
		t.Error("concat wrong")
	}
}
