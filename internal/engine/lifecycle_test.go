package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// TestGateTimeoutIsObserved: a statement whose statement_timeout
// expires while another session holds the write gate fails with a clean
// timeout error — it does not fall from the fast path's shared gate
// onto the exclusive gate — and is observed like any finished
// statement: one latency observation, and (for the statement shape
// that queues on the exclusive gate) a closed gate span in its trace.
func TestGateTimeoutIsObserved(t *testing.T) {
	db := observeDB(t)
	ctx := context.Background()
	holder := db.NewSession()
	defer holder.Close()
	mustSet(t, holder, "BEGIN")

	waiter := db.NewSession()
	defer waiter.Close()
	mustSet(t, waiter, "SET statement_timeout = 20")

	for _, tc := range []struct {
		stmt     string
		gateSpan bool
	}{
		{"INSERT INTO nv VALUES (8, 'h')", false}, // fast-path shape: waits on the shared gate
		{"CREATE TABLE late (x INTEGER)", true},   // serialized: waits on the exclusive gate
	} {
		latency := db.Stats().Histogram("engine.statement_latency")
		before := latency.Count()
		_, _, err := waiter.RunStream(ctx, tc.stmt)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want context.DeadlineExceeded", tc.stmt, err)
		}
		if got := latency.Count() - before; got != 1 {
			t.Errorf("%s: %d latency observations, want 1", tc.stmt, got)
		}
		tr := traceByID(db, waiter.LastTraceID())
		if tr == nil {
			t.Fatalf("%s: trace not retained", tc.stmt)
		}
		closed := false
		for _, sp := range tr.Spans() {
			if sp.Stage == "gate" {
				closed = strings.HasPrefix(sp.Detail, "not acquired") && sp.DurNs > 0
			}
		}
		if closed != tc.gateSpan {
			t.Errorf("%s: closed gate span = %v, want %v (spans %+v)", tc.stmt, closed, tc.gateSpan, tr.Spans())
		}
	}

	mustSet(t, holder, "ROLLBACK")
	if v, err := db.QueryScalar("SELECT COUNT(*) FROM nv WHERE id = 8"); err != nil || v.I != 0 {
		t.Errorf("timed-out INSERT left a row: %v %v", v, err)
	}
	if db.Catalog().Has("late") {
		t.Error("timed-out CREATE TABLE left a table")
	}
}

// TestPlainTextSelectTraceShape: a plain-text SELECT and a bound one
// plan fresh through the same function and leave the same trace shape:
// parse, plan, grant, open, drain — no plan-cache probe or bind stage.
func TestPlainTextSelectTraceShape(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 1)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		run  func() (*Rows, Result, error)
	}{
		{"text", func() (*Rows, Result, error) { return sess.RunStream(ctx, "SELECT label FROM nv WHERE id = 2") }},
		{"bound", func() (*Rows, Result, error) {
			return sess.RunStreamBound(ctx, "SELECT label FROM nv WHERE id = $1", []storage.Value{storage.Int64(2)})
		}},
	} {
		rows, _, err := tc.run()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Materialize(); err != nil {
			t.Fatal(err)
		}
		tr := traceByID(db, sess.LastTraceID())
		if tr == nil {
			t.Fatalf("%s: trace not retained", tc.name)
		}
		stages, _, _, _ := stagesOf(tr.Spans())
		for _, st := range []string{"parse", "plan", "grant", "open", "drain"} {
			if !stages[st] {
				t.Errorf("%s: no %s span in %v", tc.name, st, stages)
			}
		}
		if stages["plan_cache"] || stages["bind"] {
			t.Errorf("%s: plan_cache=%v bind=%v, want neither", tc.name, stages["plan_cache"], stages["bind"])
		}
	}
}

// TestDBExecRefusesGraphStatement: any identifier in statement position
// parses as a graph statement, so a typo (SELCT 1) reaches DB.Exec as
// one. It is refused up front like the other session statements, not
// queued on the write gate first.
func TestDBExecRefusesGraphStatement(t *testing.T) {
	db := observeDB(t)
	holder := db.NewSession()
	defer holder.Close()
	mustSet(t, holder, "BEGIN") // holds the exclusive gate
	defer mustSet(t, holder, "ROLLBACK")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	for _, stmt := range []string{"SELCT 1", "PAGERANK g 3"} {
		_, err := db.ExecContext(ctx, stmt)
		if err == nil || !strings.Contains(err.Error(), "is a session statement") {
			t.Errorf("%s: err = %v, want a session-statement refusal", stmt, err)
		}
	}
}

// TestDeletedForksStayDeleted fails if an identifier of the statement
// paths and ablation switches this engine used to fork on reappears in
// non-test source anywhere in the module.
func TestDeletedForksStayDeleted(t *testing.T) {
	gone := regexp.MustCompile(`\b(legacySubstitution|SetSnapshotReads|SetFastPathWrites|QueryContextWorkers|SetGraphExplainer|readerDBLevel|txnSessionOwned|execGateHeld|endExecTxn|Cacheable|Rebind|CtxRef|WithContextRef|PrepareSelectMem|NoSplit|checkoutPlan|bindRoutes|fastInsert|fastUpdate|fastDelete|execUpdateShard|execDeleteShard|matchRows|matchShardRows|pinnedShard|pinShard|DeleteWhere)\b`)
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if m := gone.Find(src); m != nil {
			t.Errorf("%s: identifier %s is back", path, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDBLevelStatementsAreObserved: a top-level DB.Exec and
// DB.QueryContext run through the embedded session's lifecycle, so
// each raises its kind's statement counter and the latency histogram
// by one, leaves a slow-query record at a 1 ns threshold, and leaves a
// vx$traces row.
func TestDBLevelStatementsAreObserved(t *testing.T) {
	db := observeDB(t)
	var slow []SlowQuery
	db.SetSlowQueryLog(func(q SlowQuery) { slow = append(slow, q) })
	db.SetSlowQueryThreshold(time.Nanosecond)
	latency := db.Stats().Histogram("engine.statement_latency")
	for _, tc := range []struct {
		kind, stmt string
		run        func(string) error
	}{
		{"insert", "INSERT INTO nv VALUES (9, 'i')", func(s string) error { _, err := db.Exec(s); return err }},
		{"select", "SELECT label FROM nv WHERE id = 9", func(s string) error {
			_, err := db.QueryContext(context.Background(), s)
			return err
		}},
	} {
		counter := db.Stats().Counter("engine.statements." + tc.kind)
		counted, observed := counter.Load(), latency.Count()
		slow = nil
		if err := tc.run(tc.stmt); err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if got := counter.Load() - counted; got != 1 {
			t.Errorf("%s: engine.statements.%s rose by %d, want 1", tc.stmt, tc.kind, got)
		}
		if got := latency.Count() - observed; got != 1 {
			t.Errorf("%s: %d latency observations, want 1", tc.stmt, got)
		}
		if len(slow) != 1 || slow[0].Text != tc.stmt {
			t.Fatalf("%s: slow-query records = %+v, want one", tc.stmt, slow)
		}
		v, err := db.QueryScalar(fmt.Sprintf("SELECT COUNT(*) FROM vx$traces WHERE trace_id = %d", slow[0].TraceID))
		if err != nil || v.I != 1 {
			t.Errorf("%s: vx$traces rows for trace %d = %v (%v), want 1", tc.stmt, slow[0].TraceID, v, err)
		}
	}
}

// TestDBLevelReadersBesideEmbeddedTxn: DB-level reads run on the
// embedded session concurrently with a DB-level transaction on that
// session. They belong to the transaction's caller, so each sees either
// the committed rows or the staged ones, never part of a statement;
// readers on their own sessions, outside the transaction, see only
// committed rows.
func TestDBLevelReadersBesideEmbeddedTxn(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE iso (id INTEGER NOT NULL)")
	seedBatches(t, db, 1, 10)
	ctx := context.Background()
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	read := func(who string, count func() (int64, error), ok func(int64) bool) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := count()
			if err == nil && !ok(n) {
				err = fmt.Errorf("saw %d rows", n)
			}
			if err != nil {
				errs <- fmt.Errorf("%s: %w", who, err)
				return
			}
		}
	}
	for i := 0; i < 4; i++ {
		s := db.NewSession()
		defer s.Close()
		wg.Add(2)
		go read("DB-level reader", func() (int64, error) {
			v, err := db.QueryScalarContext(ctx, "SELECT COUNT(*) FROM iso")
			return v.I, err
		}, func(n int64) bool { return n == 10 || n == 12 })
		go read("session reader", func() (int64, error) {
			rows, err := s.QueryContext(ctx, "SELECT COUNT(*) FROM iso")
			if err != nil {
				return 0, err
			}
			return rows.Value(0, 0).I, nil
		}, func(n int64) bool { return n == 10 })
	}
	for i := 0; i < 50; i++ {
		mustExec(t, db, "BEGIN", "INSERT INTO iso VALUES (100), (101)", "ROLLBACK")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v, err := db.QueryScalar("SELECT COUNT(*) FROM iso"); err != nil || v.I != 10 {
		t.Fatalf("rows after the rollbacks: %v %v, want 10", v, err)
	}
}

// TestDBLevelAutoCommitBesideTransactions: a DB-level auto-commit write
// issued while another goroutine's DB-level transaction is open joins
// that transaction, or takes the write gate itself if the transaction
// has ended by the time the write runs. It never runs inside another
// session's transaction, whose rollback would drop an acknowledged row:
// every acknowledged row must be present at the end.
func TestDBLevelAutoCommitBesideTransactions(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE acked (id INTEGER NOT NULL)",
		"CREATE TABLE dbtxn (id INTEGER NOT NULL)", "CREATE TABLE undone (id INTEGER NOT NULL)")
	ctx := context.Background()
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	loop := func(who string, exec func(string) error, table string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			end := "COMMIT"
			if table == "undone" {
				end = "ROLLBACK"
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, q := range []string{"BEGIN", fmt.Sprintf("INSERT INTO %s VALUES (%d)", table, i), end} {
					if err := exec(q); err != nil {
						errs <- fmt.Errorf("%s: %s: %w", who, q, err)
						return
					}
				}
			}
		}()
	}
	loop("DB-level transaction", func(q string) error {
		_, err := db.Exec(q)
		return err
	}, "dbtxn")
	s := db.NewSession()
	defer s.Close()
	loop("rolled-back session", func(q string) error {
		_, err := s.ExecContext(ctx, q)
		return err
	}, "undone")

	// Four writers, so a write often waits on the latch while the
	// transactions around it end and begin.
	const writers, perWriter = 4, 1500
	acked := make([][]int64, writers)
	var ww sync.WaitGroup
	for w := range acked {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := int64(w * perWriter); i < int64((w+1)*perWriter); i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO acked VALUES (%d)", i)); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
				acked[w] = append(acked[w], i)
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	want := slices.Concat(acked...)
	got := queryInts(t, db, "SELECT id FROM acked ORDER BY id")
	if !slices.Equal(got, want) {
		t.Errorf("%d of %d acknowledged rows present", len(got), len(want))
	}
	if n := queryInts(t, db, "SELECT COUNT(*) FROM undone"); n[0] != 0 {
		t.Errorf("%d rolled-back rows present", n[0])
	}
}
