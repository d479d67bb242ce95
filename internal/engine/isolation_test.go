package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// The snapshot-isolation suite: readers pin a version and must see
// exactly that version — no read-uncommitted, no torn batches — while
// writers commit freely mid-drain. Run with -race: the copy-on-write
// detach in storage.Table is exactly the kind of machinery the race
// detector exists for.

// seedBatches inserts `batches` commits of `per` rows each, ids
// 0..batches*per-1 in order.
func seedBatches(t testing.TB, db *DB, batches, per int) {
	t.Helper()
	next := 0
	for b := 0; b < batches; b++ {
		stmt := "INSERT INTO iso VALUES "
		for i := 0; i < per; i++ {
			if i > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d)", next)
			next++
		}
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadersPinTheirVersionWhileWriterCommits starts streaming
// readers that deliberately dawdle mid-drain while a writer keeps
// committing fixed-size batches. Every reader must observe a whole
// number of committed batches (count % per == 0 — a torn batch or an
// uncommitted row breaks that) and the exact prefix contents for that
// count (ids 0..n-1, checked via the sum's closed form).
func TestReadersPinTheirVersionWhileWriterCommits(t *testing.T) {
	const per = 100
	db := New()
	if _, err := db.Exec("CREATE TABLE iso (id INTEGER NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	seedBatches(t, db, 3, per)

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for b := 3; ; b++ {
			select {
			case <-stop:
				return
			default:
			}
			stmt := "INSERT INTO iso VALUES "
			for i := 0; i < per; i++ {
				if i > 0 {
					stmt += ", "
				}
				stmt += fmt.Sprintf("(%d)", b*per+i)
			}
			if _, err := db.Exec(stmt); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var readerWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for k := 0; k < 30; k++ {
				rows, err := db.QueryStream(context.Background(), "SELECT id FROM iso")
				if err != nil {
					t.Error(err)
					return
				}
				var n, sum int64
				first := true
				for {
					b, err := rows.Next()
					if err != nil {
						t.Error(err)
						rows.Close()
						return
					}
					if b == nil {
						break
					}
					if first {
						// Dawdle with the stream open: several writer
						// commits land while this reader is mid-drain.
						time.Sleep(time.Millisecond)
						first = false
					}
					col := b.Cols[0]
					for i := 0; i < b.Len(); i++ {
						sum += col.Value(i).I
						n++
					}
				}
				if n%per != 0 {
					t.Errorf("reader saw %d rows — not a whole number of %d-row commits (torn batch or dirty read)", n, per)
				}
				if want := n * (n - 1) / 2; sum != want {
					t.Errorf("reader saw %d rows with id sum %d, want the 0..n-1 prefix sum %d", n, sum, want)
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

// TestStalledStreamDoesNotBlockWriter is the regression test for the
// PR 4 follow-up: a streaming SELECT that never drains must not delay
// a concurrent INSERT at all (it used to hold the read latch until the
// server's WriteTimeout unwound it). The stalled stream must then
// still yield its pinned version, byte for byte.
func TestStalledStreamDoesNotBlockWriter(t *testing.T) {
	const seeded = 20000
	db := New()
	if _, err := db.Exec("CREATE TABLE iso (id INTEGER NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	seedBatches(t, db, seeded/500, 500)

	rows, err := db.QueryStream(context.Background(), "SELECT id FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	firstBatch, err := rows.Next()
	if err != nil || firstBatch == nil {
		t.Fatalf("first batch: %v %v", firstBatch, err)
	}
	// The stream now stalls: nothing pulls it. A writer must commit
	// promptly regardless.
	start := time.Now()
	wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := db.ExecContext(wctx, fmt.Sprintf("INSERT INTO iso VALUES (%d)", seeded)); err != nil {
		t.Fatalf("INSERT blocked behind a stalled stream: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("INSERT took %v behind a stalled stream", elapsed)
	}

	// Resume the stalled stream: it yields its pinned version.
	n := int64(firstBatch.Len())
	var sum int64
	col := firstBatch.Cols[0]
	for i := 0; i < firstBatch.Len(); i++ {
		sum += col.Value(i).I
	}
	for {
		b, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		col := b.Cols[0]
		for i := 0; i < b.Len(); i++ {
			sum += col.Value(i).I
			n++
		}
	}
	if n != seeded {
		t.Fatalf("stalled stream yielded %d rows, want its pinned %d", n, seeded)
	}
	if want := int64(seeded) * (seeded - 1) / 2; sum != want {
		t.Fatalf("stalled stream contents drifted: sum %d, want %d", sum, want)
	}
}

// TestOpenTransactionInvisibleToReaders asserts snapshot isolation
// across sessions: a transaction's writes — DML and DDL — stay
// invisible to other sessions' statements until COMMIT, instead of the
// old read-uncommitted behavior between a transaction's statements.
func TestOpenTransactionInvisibleToReaders(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE iso (id INTEGER NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	seedBatches(t, db, 1, 10)

	writer := db.NewSession()
	defer writer.Close()
	ctx := context.Background()
	if _, err := writer.ExecContext(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.ExecContext(ctx, "INSERT INTO iso VALUES (100)"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.ExecContext(ctx, "CREATE TABLE iso_new (x INTEGER)"); err != nil {
		t.Fatal(err)
	}

	// Another session's reads: pre-transaction state only.
	n, err := db.QueryScalar("SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if n.I != 10 {
		t.Fatalf("reader saw %d rows of an uncommitted INSERT's table, want 10", n.I)
	}
	if _, err := db.Query("SELECT * FROM iso_new"); err == nil {
		t.Fatal("reader saw a table created by an uncommitted transaction")
	}
	// The writer's own statements read their writes.
	wn, err := writer.QueryContext(ctx, "SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if wn.Value(0, 0).I != 11 {
		t.Fatalf("writer saw %d rows of its own transaction, want 11", wn.Value(0, 0).I)
	}

	if _, err := writer.ExecContext(ctx, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	n, err = db.QueryScalar("SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if n.I != 11 {
		t.Fatalf("post-commit reader saw %d rows, want 11", n.I)
	}
	if _, err := db.Query("SELECT * FROM iso_new"); err != nil {
		t.Fatalf("post-commit reader cannot see the committed table: %v", err)
	}
}

// TestDBLevelTransactionInvisibleToSessions asserts the visibility
// scoping of a DB-level transaction: the embedded caller's own reads
// see its staged writes (single-caller API), but an unrelated
// Session's reads keep the committed versions.
func TestDBLevelTransactionInvisibleToSessions(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE iso (id INTEGER NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	seedBatches(t, db, 1, 10)

	if _, err := db.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO iso VALUES (100)"); err != nil {
		t.Fatal(err)
	}
	// The embedded caller reads its own staged writes.
	n, err := db.QueryScalar("SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if n.I != 11 {
		t.Fatalf("DB-level owner saw %d rows of its own transaction, want 11", n.I)
	}
	// A Session (a wire client, say) sees only committed state.
	s := db.NewSession()
	defer s.Close()
	sr, err := s.QueryContext(context.Background(), "SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Value(0, 0).I; got != 10 {
		t.Fatalf("session saw %d rows of a DB-level uncommitted transaction, want 10", got)
	}
	if _, err := db.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	n, err = db.QueryScalar("SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if n.I != 10 {
		t.Fatalf("post-rollback count %d, want 10", n.I)
	}
}

// TestRollbackRestoresSnapshots asserts the version-swap undo: a
// transaction's writes, truncates, drops and creates all unwind, and a
// reader pinned before the rollback is untouched by it.
func TestRollbackRestoresSnapshots(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE iso (id INTEGER NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE gone (id INTEGER NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	seedBatches(t, db, 1, 10)

	s := db.NewSession()
	defer s.Close()
	ctx := context.Background()
	for _, stmt := range []string{
		"BEGIN",
		"INSERT INTO iso VALUES (100), (101)",
		"DROP TABLE gone",
		"CREATE TABLE made (x INTEGER)",
		"TRUNCATE iso",
	} {
		if _, err := s.ExecContext(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	rows, err := db.QueryStream(context.Background(), "SELECT id FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecContext(ctx, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	data, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 10 {
		t.Fatalf("reader pinned across rollback saw %d rows, want 10", data.Len())
	}

	n, err := db.QueryScalar("SELECT COUNT(*) FROM iso")
	if err != nil {
		t.Fatal(err)
	}
	if n.I != 10 {
		t.Fatalf("rollback left %d rows, want 10", n.I)
	}
	if !db.Catalog().Has("gone") {
		t.Fatal("rollback did not restore the dropped table")
	}
	if db.Catalog().Has("made") {
		t.Fatal("rollback kept the created table")
	}
	if db.MVCC().LiveReaders() != 0 {
		t.Fatalf("%d snapshot pins leaked", db.MVCC().LiveReaders())
	}
}
