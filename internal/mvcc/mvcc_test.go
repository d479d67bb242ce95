package mvcc

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

func newTable(t *testing.T, cat *catalog.Catalog, name string, rows int) *storage.Table {
	t.Helper()
	tb, err := cat.Create(name, storage.NewSchema(
		storage.NotNullCol("id", storage.TypeInt64),
		storage.Col("v", storage.TypeFloat64),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow(storage.Int64(int64(i)), storage.Float64(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// sumIDs folds the id column of a table view (snapshot or live).
func sumIDs(td storage.TableData) int64 {
	var s int64
	col := td.Column(0)
	for i := 0; i < td.NumRows(); i++ {
		s += col.Value(i).I
	}
	return s
}

// TestSnapshotImmuneToEveryMutator pins a snapshot and runs every
// in-place and swapping mutator against the live table; the snapshot's
// contents must not move.
func TestSnapshotImmuneToEveryMutator(t *testing.T) {
	cat := catalog.New()
	tb := newTable(t, cat, "t", 10)
	m := NewManager(cat)

	snap, err := m.Acquire("t")
	if err != nil {
		t.Fatal(err)
	}
	snap.Seal()
	td, err := snap.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	wantRows, wantSum := td.NumRows(), sumIDs(td)

	if err := tb.AppendRow(storage.Int64(100), storage.Float64(1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.UpdateInPlace([]int{0}, 0, []storage.Value{storage.Int64(-50)}); err != nil {
		t.Fatal(err)
	}
	tb.DeleteShardWhere(0, []int{1, 2})
	b := storage.NewBatch(tb.Schema())
	if err := b.AppendRow(storage.Int64(7), storage.Float64(7)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Replace(b); err != nil {
		t.Fatal(err)
	}
	tb.Truncate()

	if got := td.NumRows(); got != wantRows {
		t.Fatalf("snapshot rows %d, want %d", got, wantRows)
	}
	if got := sumIDs(td); got != wantSum {
		t.Fatalf("snapshot id sum %d, want %d", got, wantSum)
	}
	snap.Release()
}

// TestOverlayHidesUncommittedWrites asserts readers resolve staged
// tables to their pre-images until Commit publishes.
func TestOverlayHidesUncommittedWrites(t *testing.T) {
	cat := catalog.New()
	tb := newTable(t, cat, "t", 5)
	m := NewManager(cat)

	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	m.StageWrite(tb)
	if err := tb.AppendRow(storage.Int64(99), storage.Float64(9)); err != nil {
		t.Fatal(err)
	}

	snap, err := m.Acquire("t")
	if err != nil {
		t.Fatal(err)
	}
	td, _ := snap.Table("t")
	if td.NumRows() != 5 {
		t.Fatalf("mid-transaction reader sees %d rows, want pre-image 5", td.NumRows())
	}
	snap.Release()

	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	snap2, _ := m.Acquire("t")
	td2, _ := snap2.Table("t")
	if td2.NumRows() != 6 {
		t.Fatalf("post-commit reader sees %d rows, want 6", td2.NumRows())
	}
	snap2.Release()
}

// TestOverlayHidesCreatedAndKeepsDropped asserts DDL visibility: a
// table created inside a transaction is invisible to readers, and a
// dropped one remains visible until commit.
func TestOverlayHidesCreatedAndKeepsDropped(t *testing.T) {
	cat := catalog.New()
	tb := newTable(t, cat, "old", 3)
	m := NewManager(cat)

	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	m.StageCreate("fresh")
	if _, err := cat.Create("fresh", storage.NewSchema(storage.Col("x", storage.TypeInt64))); err != nil {
		t.Fatal(err)
	}
	m.StageDrop(tb)
	if err := cat.Drop("old"); err != nil {
		t.Fatal(err)
	}

	snap, _ := m.Acquire()
	if _, err := snap.Table("fresh"); err == nil {
		t.Fatal("reader sees a table created by an uncommitted transaction")
	}
	td, err := snap.Table("old")
	if err != nil {
		t.Fatalf("reader lost a table dropped by an uncommitted transaction: %v", err)
	}
	if td.NumRows() != 3 {
		t.Fatalf("dropped pre-image has %d rows, want 3", td.NumRows())
	}
	snap.Release()

	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	if cat.Has("fresh") {
		t.Fatal("rollback kept a transaction-created table")
	}
	restored, err := cat.Get("old")
	if err != nil {
		t.Fatal("rollback did not re-register the dropped table")
	}
	if restored.NumRows() != 3 {
		t.Fatalf("restored table has %d rows, want 3", restored.NumRows())
	}
}

// TestRollbackIsVersionSwap asserts rollback restores staged tables to
// their pre-images (contents and row count), including the
// drop-then-recreate-with-another-shape corner.
func TestRollbackIsVersionSwap(t *testing.T) {
	cat := catalog.New()
	tb := newTable(t, cat, "t", 4)
	m := NewManager(cat)

	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	m.StageWrite(tb)
	if err := tb.AppendRow(storage.Int64(50), storage.Float64(5)); err != nil {
		t.Fatal(err)
	}
	m.StageDrop(tb)
	if err := cat.Drop("t"); err != nil {
		t.Fatal(err)
	}
	m.StageCreate("t") // recreate under the same name, different shape
	if _, err := cat.Create("t", storage.NewSchema(storage.Col("other", storage.TypeString))); err != nil {
		t.Fatal(err)
	}

	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, err := cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 4 || got.Schema().Cols[0].Name != "id" {
		t.Fatalf("rollback restored %d rows / schema %v, want the 4-row pre-image", got.NumRows(), got.Schema().Names())
	}
}

// TestSealedSnapshotRejectsLateResolution pins only one table; a
// post-seal miss must fail loudly instead of reading live state.
func TestSealedSnapshotRejectsLateResolution(t *testing.T) {
	cat := catalog.New()
	newTable(t, cat, "a", 1)
	newTable(t, cat, "b", 1)
	m := NewManager(cat)
	snap, err := m.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	snap.Seal()
	if _, err := snap.Table("a"); err != nil {
		t.Fatalf("pinned table unavailable after seal: %v", err)
	}
	if _, err := snap.Table("b"); err == nil {
		t.Fatal("sealed snapshot resolved a table it never pinned")
	}
	snap.Release()
}

// TestReaderTracking exercises the live/peak/oldest-epoch gauges and
// Release idempotence under concurrency.
func TestReaderTracking(t *testing.T) {
	cat := catalog.New()
	newTable(t, cat, "t", 1)
	m := NewManager(cat)

	s1, _ := m.Acquire("t")
	m.Publish()
	s2, _ := m.Acquire("t")
	if got := m.LiveReaders(); got != 2 {
		t.Fatalf("live readers %d, want 2", got)
	}
	if e, ok := m.OldestPinnedEpoch(); !ok || e != s1.Epoch() {
		t.Fatalf("oldest pinned epoch %d/%v, want %d", e, ok, s1.Epoch())
	}
	s1.Release()
	s1.Release() // idempotent
	if e, ok := m.OldestPinnedEpoch(); !ok || e != s2.Epoch() {
		t.Fatalf("oldest pinned epoch %d/%v after release, want %d", e, ok, s2.Epoch())
	}
	s2.Release()
	if got := m.LiveReaders(); got != 0 {
		t.Fatalf("live readers %d after releases, want 0", got)
	}
	if got := m.PeakReaders(); got != 2 {
		t.Fatalf("peak readers %d, want 2", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s, err := m.Acquire("t")
				if err != nil {
					t.Error(err)
					return
				}
				s.Release()
			}
		}()
	}
	wg.Wait()
	if got := m.LiveReaders(); got != 0 {
		t.Fatalf("live readers %d after concurrent churn, want 0", got)
	}
}

// TestConcurrentReadersSeeStableSnapshots hammers a table with an
// appender while readers pin and fold snapshots — the -race workhorse
// for the copy-on-write machinery. Each reader's sum must match the
// closed form for the row count it pinned.
func TestConcurrentReadersSeeStableSnapshots(t *testing.T) {
	cat := catalog.New()
	tb := newTable(t, cat, "t", 100)
	m := NewManager(cat)

	done := make(chan struct{})
	var writerErr error
	go func() {
		defer close(done)
		for i := 100; i < 1100; i++ {
			if err := tb.AppendRow(storage.Int64(int64(i)), storage.Float64(0)); err != nil {
				writerErr = err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				snap, err := m.Acquire("t")
				if err != nil {
					t.Error(err)
					return
				}
				td, err := snap.Table("t")
				if err != nil {
					t.Error(err)
					snap.Release()
					return
				}
				n := int64(td.NumRows())
				if got, want := sumIDs(td), n*(n-1)/2; got != want {
					t.Errorf("torn snapshot: %d rows sum %d, want %d", n, got, want)
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
	<-done
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

// TestReaderPinnedAcrossRollbackSurvivesLaterWrites is the regression
// for rollback adopting the pre-image's column objects: a reader still
// pinned on the pre-image must not observe rows appended to the table
// AFTER the rollback restored it (appends skip copy-on-write by
// design, so RestoreSnapshot must install re-frozen copies).
func TestReaderPinnedAcrossRollbackSurvivesLaterWrites(t *testing.T) {
	cat := catalog.New()
	tb := newTable(t, cat, "t", 1)
	m := NewManager(cat)

	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	m.StageWrite(tb)
	if err := tb.AppendRow(storage.Int64(50), storage.Float64(5)); err != nil {
		t.Fatal(err)
	}
	// Reader pins mid-transaction: it resolves to the 1-row pre-image.
	snap, err := m.Acquire("t")
	if err != nil {
		t.Fatal(err)
	}
	td, err := snap.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if td.NumRows() != 1 {
		t.Fatalf("pinned pre-image has %d rows, want 1", td.NumRows())
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Post-rollback appends land in the restored table; the pinned
	// pre-image view must not move.
	for i := 0; i < 100; i++ {
		if err := tb.AppendRow(storage.Int64(int64(100+i)), storage.Float64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := td.NumRows(); got != 1 {
		t.Fatalf("pinned reader saw %d rows after rollback+appends, want its pinned 1", got)
	}
	if got := tb.NumRows(); got != 101 {
		t.Fatalf("restored table has %d rows, want 101", got)
	}
	snap.Release()

	// Same defect through the drop arm: TableFromSnapshot must also
	// copy, so a reader pinned on the dropped pre-image is immune to
	// appends on the re-registered table.
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	m.StageDrop(tb)
	snap2, err := m.Acquire("t")
	if err != nil {
		t.Fatal(err)
	}
	td2, err := snap2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	pinned := td2.NumRows()
	if err := cat.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	restored, err := cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.AppendRow(storage.Int64(9999), storage.Float64(9)); err != nil {
		t.Fatal(err)
	}
	if got := td2.NumRows(); got != pinned {
		t.Fatalf("pinned reader saw %d rows after drop-rollback+append, want %d", got, pinned)
	}
	snap2.Release()
}

func TestDoubleBeginAndBareCommit(t *testing.T) {
	m := NewManager(catalog.New())
	if err := m.Commit(); err == nil {
		t.Fatal("commit without begin succeeded")
	}
	if err := m.Rollback(); err == nil {
		t.Fatal("rollback without begin succeeded")
	}
	if err := m.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(); err == nil {
		t.Fatal("nested begin succeeded")
	}
	if !m.InTransaction() {
		t.Fatal("InTransaction false with open scope")
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got == 0 {
		t.Fatal("commit did not advance the epoch")
	}
}

func BenchmarkSnapshotAcquire(b *testing.B) {
	cat := catalog.New()
	tb, _ := cat.Create("t", storage.NewSchema(storage.NotNullCol("id", storage.TypeInt64)))
	for i := 0; i < 10000; i++ {
		_ = tb.AppendRow(storage.Int64(int64(i)))
	}
	m := NewManager(cat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.Acquire("t")
		if err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
}
