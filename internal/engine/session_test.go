package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/storage"
)

func sessionFixture(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INTEGER, v DOUBLE)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d.5)", i, i))
	}
	return db, db.NewSession()
}

func TestSessionSetShow(t *testing.T) {
	_, s := sessionFixture(t)
	ctx := context.Background()

	if _, _, err := s.Run(ctx, "SET statement_timeout = 250"); err != nil {
		t.Fatalf("SET statement_timeout: %v", err)
	}
	if got := s.StatementTimeout(); got != 250*time.Millisecond {
		t.Fatalf("timeout = %v, want 250ms", got)
	}
	rows, err := s.QueryContext(ctx, "SHOW statement_timeout")
	if err != nil {
		t.Fatalf("SHOW: %v", err)
	}
	if rows.Len() != 1 || rows.Value(0, 0).I != 250 {
		t.Fatalf("SHOW statement_timeout = %v", rows.Value(0, 0))
	}
	if cols := rows.Columns(); cols[0] != "statement_timeout" {
		t.Fatalf("SHOW column name = %q", cols[0])
	}

	if _, _, err := s.Run(ctx, "SET statement_timeout = -1"); err == nil {
		t.Fatal("negative timeout should be rejected")
	}
	if _, _, err := s.Run(ctx, "SET no_such_var = 1"); err == nil {
		t.Fatal("unknown variable should be rejected")
	}
	if _, err := s.QueryContext(ctx, "SHOW no_such_var"); err == nil {
		t.Fatal("SHOW of unknown variable should be rejected")
	}
}

func TestSessionParallelismCap(t *testing.T) {
	db := New()
	db.SetParallelism(8)
	s := db.NewSessionMaxWorkers(2)
	ctx := context.Background()

	// Uncapped session variable, capped by admission control.
	rows, err := s.QueryContext(ctx, "SHOW parallelism")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Value(0, 0).I; got != 2 {
		t.Fatalf("effective parallelism = %d, want cap 2", got)
	}
	if _, _, err := s.Run(ctx, "SET parallelism = 1"); err != nil {
		t.Fatal(err)
	}
	rows, _ = s.QueryContext(ctx, "SHOW parallelism")
	if got := rows.Value(0, 0).I; got != 1 {
		t.Fatalf("effective parallelism = %d, want 1", got)
	}
}

func TestSessionStatementTimeout(t *testing.T) {
	db, _ := sessionFixture(t)
	err := db.RegisterUDF(&expr.ScalarFunc{
		Name: "slow", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []storage.Type) (storage.Type, error) { return storage.TypeInt64, nil },
		Eval: func(args []storage.Value) (storage.Value, error) {
			time.Sleep(30 * time.Millisecond)
			return args[0], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	ctx := context.Background()
	if _, _, err := s.Run(ctx, "SET statement_timeout = 40"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = s.Run(ctx, "SELECT slow(id) FROM t")
	if err == nil {
		t.Fatal("expected statement_timeout to cancel the query")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v; cancellation did not land mid-statement", elapsed)
	}
	// Disabling the timeout lets the same query finish.
	if _, _, err := s.Run(ctx, "SET statement_timeout = 0"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(ctx, "SELECT slow(id) FROM t LIMIT 1"); err != nil {
		t.Fatalf("query after disabling timeout: %v", err)
	}
}

func TestSessionTransactionSQL(t *testing.T) {
	db, s := sessionFixture(t)
	ctx := context.Background()

	for _, stmt := range []string{"BEGIN", "INSERT INTO t VALUES (100, 1.0)", "ROLLBACK"} {
		if _, _, err := s.Run(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	v, err := db.QueryScalar("SELECT COUNT(*) FROM t WHERE id = 100")
	if err != nil || v.I != 0 {
		t.Fatalf("rollback did not undo insert: count=%v err=%v", v, err)
	}

	for _, stmt := range []string{"BEGIN", "INSERT INTO t VALUES (101, 1.0)", "COMMIT"} {
		if _, _, err := s.Run(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	v, _ = db.QueryScalar("SELECT COUNT(*) FROM t WHERE id = 101")
	if v.I != 1 {
		t.Fatal("commit lost the insert")
	}

	if _, _, err := s.Run(ctx, "COMMIT"); err == nil {
		t.Fatal("COMMIT without BEGIN should fail")
	}
	if _, _, err := s.Run(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(ctx, "BEGIN"); err == nil {
		t.Fatal("nested BEGIN should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close with open txn: %v", err)
	}
	if db.InTransaction() {
		t.Fatal("Close should roll back the open transaction")
	}
}

// TestSessionWriteGate: while one session holds a transaction, another
// session's auto-commit write must wait for COMMIT — otherwise the
// first session's rollback images could clobber it.
func TestSessionWriteGate(t *testing.T) {
	db, a := sessionFixture(t)
	b := db.NewSession()
	ctx := context.Background()

	if _, _, err := a.Run(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Run(ctx, "UPDATE t SET v = 0.0 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, _, err := b.Run(ctx, "INSERT INTO t VALUES (200, 2.0)")
		done <- err
	}()
	<-started
	// B must still be blocked on the gate while A's txn is open.
	select {
	case err := <-done:
		t.Fatalf("write slipped past an open transaction (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Reads are NOT blocked by the gate (read-uncommitted).
	if _, err := b.QueryContext(ctx, "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("concurrent read during txn: %v", err)
	}
	if _, _, err := a.Run(ctx, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("gated write failed after rollback: %v", err)
	}
	v, _ := db.QueryScalar("SELECT COUNT(*) FROM t WHERE id = 200")
	if v.I != 1 {
		t.Fatal("B's write lost")
	}
	// A's rollback must not have clobbered B's row, and A's update is gone.
	v, _ = db.QueryScalar("SELECT v FROM t WHERE id = 1")
	if v.F != 1.5 {
		t.Fatalf("rollback state wrong: v=%v", v)
	}
	// A blocked gated write honours context cancellation.
	if _, _, err := a.Run(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, _, err := b.Run(cctx, "INSERT INTO t VALUES (201, 2.0)"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated write under cancelled ctx: err=%v", err)
	}
	if _, _, err := a.Run(ctx, "COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReaders drives many concurrent read statements (the
// multi-reader RWMutex path) under -race.
func TestConcurrentReaders(t *testing.T) {
	db, _ := sessionFixture(t)
	want, err := db.Query("SELECT id, v FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			for j := 0; j < 20; j++ {
				got, err := s.QueryContext(context.Background(), "SELECT id, v FROM t ORDER BY id")
				if err != nil {
					errs[i] = err
					return
				}
				if got.Len() != want.Len() {
					errs[i] = fmt.Errorf("row count %d != %d", got.Len(), want.Len())
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDBLevelTxnSQL(t *testing.T) {
	db, _ := sessionFixture(t)
	for _, stmt := range []string{"BEGIN", "DELETE FROM t", "ROLLBACK"} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	v, _ := db.QueryScalar("SELECT COUNT(*) FROM t")
	if v.I != 10 {
		t.Fatalf("rows after rollback = %d, want 10", v.I)
	}
	if _, err := db.Exec("SET statement_timeout = 5"); err == nil ||
		!strings.Contains(err.Error(), "session statement") {
		t.Fatalf("DB-level SET should point at sessions, got %v", err)
	}

	// A DB-level BEGIN holds the cross-session write gate like a
	// session transaction would: a concurrent session's auto-commit
	// write must wait for COMMIT/ROLLBACK instead of landing inside
	// the open undo scope.
	if _, err := db.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := s.Run(cctx, "INSERT INTO t VALUES (300, 3.0)"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("session write slipped past a DB-level transaction: %v", err)
	}
	if _, err := db.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(context.Background(), "INSERT INTO t VALUES (300, 3.0)"); err != nil {
		t.Fatalf("gated write failed after DB-level rollback: %v", err)
	}
	// And the reverse: a session transaction gates DB-level BEGIN.
	if _, _, err := s.Run(context.Background(), "BEGIN"); err != nil {
		t.Fatal(err)
	}
	cctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if _, err := db.ExecContext(cctx2, "BEGIN"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DB-level BEGIN slipped past a session transaction: %v", err)
	}
	if _, _, err := s.Run(context.Background(), "COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionQueryRefusesWriteUnrun: Session.QueryContext refuses a
// statement that returns no rows before running it, as DB.QueryContext
// does — the refused INSERT leaves no row behind.
func TestSessionQueryRefusesWriteUnrun(t *testing.T) {
	db, s := sessionFixture(t)
	defer s.Close()
	ctx := context.Background()
	const stmt = "INSERT INTO t VALUES (100, 1.0)"
	if _, err := s.QueryContext(ctx, stmt); err == nil || !strings.Contains(err.Error(), "use Exec") {
		t.Fatalf("Session.QueryContext(%s): err = %v, want a refusal", stmt, err)
	}
	if _, err := db.QueryContext(ctx, stmt); err == nil || !strings.Contains(err.Error(), "use Exec") {
		t.Fatalf("DB.QueryContext(%s): err = %v, want a refusal", stmt, err)
	}
	if v, err := db.QueryScalar("SELECT COUNT(*) FROM t WHERE id = 100"); err != nil || v.I != 0 {
		t.Fatalf("refused INSERT left %v rows (%v), want 0", v, err)
	}
}
