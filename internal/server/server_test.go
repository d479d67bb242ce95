package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	vertexica "repro"
	"repro/internal/client"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// startServer boots a server over eng on an ephemeral port and
// arranges a graceful shutdown at test end.
func startServer(t *testing.T, eng *vertexica.Engine, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(eng, cfg)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, srv.Addr()
}

func dialT(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerBasicSQL(t *testing.T) {
	eng := vertexica.New()
	_, addr := startServer(t, eng, Config{})
	c := dialT(t, addr)
	ctx := context.Background()

	if _, err := c.Exec(ctx, "CREATE TABLE kv (k INTEGER, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	n, err := c.Exec(ctx, "INSERT INTO kv VALUES (1, 'one'), (2, 'two''s'), (3, NULL)")
	if err != nil || n != 3 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	rows, err := c.Query(ctx, "SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 || rows.Columns()[1] != "v" {
		t.Fatalf("rows: %d cols=%v", rows.Len(), rows.Columns())
	}
	if got := rows.Value(1, 1).S; got != "two's" {
		t.Fatalf("quoted string round trip: %q", got)
	}
	if !rows.Value(2, 1).Null {
		t.Fatal("NULL lost over the wire")
	}

	// Wire results must be byte-identical to the in-process result.
	local, err := eng.DB().Query("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	localData, err := local.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !wire.EqualBatches(rows.Data, localData) {
		t.Fatal("wire result differs from in-process result")
	}

	// Parse errors surface as server errors without killing the session.
	if _, err := c.Query(ctx, "SELEKT 1"); err == nil {
		t.Fatal("expected parse error")
	}
	if rows, err := c.Query(ctx, "SELECT COUNT(*) FROM kv"); err != nil || rows.Value(0, 0).I != 3 {
		t.Fatalf("session unusable after error: %v", err)
	}
}

func TestServerPreparedStatements(t *testing.T) {
	eng := vertexica.New()
	_, addr := startServer(t, eng, Config{})
	c := dialT(t, addr)
	ctx := context.Background()

	if _, err := c.Exec(ctx, "CREATE TABLE p (id INTEGER, score DOUBLE, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare(ctx, "INSERT INTO p VALUES ($1, $2, $3)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("n-%d; DROP TABLE p; --'", i)
		if _, err := ins.Exec(ctx, storage.Int64(int64(i)), storage.Float64(float64(i)/3), storage.Str(name)); err != nil {
			t.Fatalf("bind exec %d: %v", i, err)
		}
	}
	sel, err := c.Prepare(ctx, "SELECT name FROM p WHERE id = $1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sel.Query(ctx, storage.Int64(3))
	if err != nil || rows.Len() != 1 {
		t.Fatalf("prepared select: %v (%d rows)", err, rows.Len())
	}
	if got := rows.Value(0, 0).S; got != "n-3; DROP TABLE p; --'" {
		t.Fatalf("injection-shaped string mangled: %q", got)
	}
	// NULL parameter.
	if _, err := ins.Exec(ctx, storage.Int64(9), storage.Null(storage.TypeFloat64), storage.Str("x")); err != nil {
		t.Fatal(err)
	}
	rows, err = c.Query(ctx, "SELECT COUNT(*) FROM p WHERE score IS NULL")
	if err != nil || rows.Value(0, 0).I != 1 {
		t.Fatalf("NULL param: %v", err)
	}
	// Out-of-range parameter is an error, not silent text.
	if _, err := ins.Exec(ctx, storage.Int64(1)); err == nil {
		t.Fatal("missing arguments accepted")
	}
}

func TestServerSessionVariables(t *testing.T) {
	eng := vertexica.New()
	if err := eng.RegisterUDF(&vertexica.ScalarFunc{
		Name: "slowv", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []storage.Type) (storage.Type, error) { return storage.TypeInt64, nil },
		Eval: func(args []storage.Value) (storage.Value, error) {
			time.Sleep(20 * time.Millisecond)
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng, Config{MaxStmtWorkers: 2})
	c := dialT(t, addr)
	ctx := context.Background()

	if _, err := c.Exec(ctx, "CREATE TABLE s (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO s VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	// statement_timeout over the wire.
	if _, err := c.Exec(ctx, "SET statement_timeout = 30"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT slowv(x) FROM s"); err == nil {
		t.Fatal("statement_timeout did not fire over the wire")
	}
	if _, err := c.Exec(ctx, "SET statement_timeout = 0"); err != nil {
		t.Fatal(err)
	}
	if rows, err := c.Query(ctx, "SELECT slowv(x) FROM s LIMIT 1"); err != nil || rows.Len() != 1 {
		t.Fatalf("after disabling timeout: %v", err)
	}
	// SHOW reflects the admission cap on parallelism.
	rows, err := c.Query(ctx, "SHOW parallelism")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Value(0, 0).I; got > 2 {
		t.Fatalf("parallelism %d exceeds MaxStmtWorkers 2", got)
	}
}

func TestServerAdmissionControl(t *testing.T) {
	eng := vertexica.New()
	// AdmitQueue < 0 restores unqueued admission: the (N+1)th
	// handshake is rejected immediately.
	_, addr := startServer(t, eng, Config{MaxSessions: 2, AdmitQueue: -1})
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)
	_ = c2
	if _, err := client.Dial(addr); err == nil ||
		!strings.Contains(err.Error(), "too many sessions") {
		t.Fatalf("third session admitted: %v", err)
	}
	c1.Close()
	// Slot frees once the session unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := client.Dial(addr)
		if err == nil {
			c4.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerGraphVerbs(t *testing.T) {
	eng := vertexica.New()
	ref := testutil.RandomGraph(7, 120, 600)
	if _, err := ref.Load(eng.DB(), "g"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng, Config{})
	c := dialT(t, addr)
	ctx := context.Background()

	// Server-side PageRank must agree with the in-process run and the
	// independent reference.
	got, err := c.PageRank(ctx, "g", 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := eng.OpenGraph("g")
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := g.PageRank(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.DiffFloatMaps("pagerank wire vs local", got, local, 0); err != nil {
		t.Fatal(err)
	}
	if err := testutil.DiffFloatMaps("pagerank wire vs reference",
		got, testutil.RefPageRank(ref, 8, 0.85), 1e-9); err != nil {
		t.Fatal(err)
	}

	// SSSP and components (SQL flavors included) round-trip.
	if _, err := c.Graph(ctx, "sssp", "g", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(ctx, "components-sql", "g"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Graph(ctx, "graphs")
	if err != nil || rows.Len() != 1 || rows.Value(0, 0).S != "g" {
		t.Fatalf("graphs verb: %v", err)
	}
	// load verb creates a queryable graph.
	rows, err = c.Graph(ctx, "load", "twitter", "0.002")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("load verb: %v", err)
	}
	name := rows.Value(0, 0).S
	if rows, err = c.Query(ctx, fmt.Sprintf("SELECT COUNT(*) FROM %s_edge", name)); err != nil || rows.Value(0, 0).I == 0 {
		t.Fatalf("loaded graph not queryable: %v", err)
	}
	// Verbs are refused inside a transaction (they bypass undo).
	if _, err := c.Exec(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(ctx, "pagerank", "g", "2"); err == nil {
		t.Fatal("graph verb allowed inside a transaction")
	}
	if _, err := c.Exec(ctx, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(ctx, "no-such-verb"); err == nil {
		t.Fatal("unknown verb accepted")
	}
}

// TestServerCancelFreesBudget cancels a statement mid-flight and
// asserts its worker-budget slots return to the pool and the session
// survives.
func TestServerCancelFreesBudget(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 16
	defer func() { exec.MinMorselRows = oldMorsels }()

	eng := vertexica.New()
	eng.SetParallelism(4)
	if err := eng.RegisterUDF(&expr.ScalarFunc{
		Name: "slowc", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []storage.Type) (storage.Type, error) { return storage.TypeInt64, nil },
		Eval: func(args []storage.Value) (storage.Value, error) {
			time.Sleep(2 * time.Millisecond)
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng, Config{WorkerBudget: 3})
	c := dialT(t, addr)
	ctx := context.Background()

	if _, err := c.Exec(ctx, "CREATE TABLE big (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES (0)")
	for i := 1; i < 400; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	if _, err := c.Exec(ctx, sb.String()); err != nil {
		t.Fatal(err)
	}

	cctx, cancel := context.WithTimeout(ctx, 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(cctx, "SELECT slowc(x) FROM big")
	if err == nil {
		t.Fatal("cancelled statement succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancel took %v; did not land mid-statement", elapsed)
	}
	// The cancelled statement's budget slots must drain back.
	budget := eng.WorkerBudget()
	deadline := time.Now().Add(5 * time.Second)
	for budget.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("budget slots leaked: in-use %d", budget.InUse())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Session remains usable.
	if rows, err := c.Query(ctx, "SELECT COUNT(*) FROM big"); err != nil || rows.Value(0, 0).I != 400 {
		t.Fatalf("session dead after cancel: %v", err)
	}
}

// TestServerGracefulDrain lets an in-flight statement finish, then
// refuses new work and closes connections.
func TestServerGracefulDrain(t *testing.T) {
	eng := vertexica.New()
	if err := eng.RegisterUDF(&expr.ScalarFunc{
		Name: "slowd", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []storage.Type) (storage.Type, error) { return storage.TypeInt64, nil },
		Eval: func(args []storage.Value) (storage.Value, error) {
			time.Sleep(10 * time.Millisecond)
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE d (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO d VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}

	type qres struct {
		rows *client.Rows
		err  error
	}
	resCh := make(chan qres, 1)
	go func() {
		rows, err := c.Query(ctx, "SELECT slowd(x) FROM d")
		resCh <- qres{rows, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the statement get in flight

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	res := <-resCh
	if res.err != nil || res.rows.Len() != 10 {
		t.Fatalf("in-flight statement not drained cleanly: %v", res.err)
	}
	if err := <-serveDone; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if _, err := client.Dial(srv.Addr()); err == nil {
		t.Fatal("connect after shutdown succeeded")
	}
}

// TestServerConcurrentSessions is the acceptance test: many concurrent
// client sessions — mixed SQL reads, a write transaction, vertex-
// centric PageRank runs, and a mid-statement cancel — against one
// engine under a small worker budget. Every result must be byte-
// identical to serial in-process execution, the budget's high-water
// mark must never exceed its capacity, and the cancelled statement's
// slots must drain back. Run under -race in CI.
func TestServerConcurrentSessions(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 16
	defer func() { exec.MinMorselRows = oldMorsels }()

	const budgetCap = 3
	eng := vertexica.New()
	eng.SetParallelism(4) // parallel plans even on the 1-CPU CI box
	if err := eng.RegisterUDF(&expr.ScalarFunc{
		Name: "slows", MinArgs: 1, MaxArgs: 1,
		ReturnType: func(args []storage.Type) (storage.Type, error) { return storage.TypeInt64, nil },
		Eval: func(args []storage.Value) (storage.Value, error) {
			time.Sleep(time.Millisecond)
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	ref := testutil.RandomGraph(11, 150, 900)
	if _, err := ref.Load(eng.DB(), "g"); err != nil {
		t.Fatal(err)
	}
	g, err := eng.OpenGraph("g")
	if err != nil {
		t.Fatal(err)
	}

	// Serial in-process baselines, computed before any concurrency.
	readQueries := []string{
		"SELECT src, dst, weight FROM g_edge ORDER BY src, dst, created",
		"SELECT src, COUNT(*), SUM(weight) FROM g_edge GROUP BY src ORDER BY src",
		"SELECT e1.src, COUNT(*) FROM g_edge AS e1 JOIN g_edge AS e2 ON e1.dst = e2.src GROUP BY e1.src ORDER BY e1.src",
		"SELECT COUNT(*) FROM g_edge WHERE weight > 1.0",
	}
	wantRead := make([]*storage.Batch, len(readQueries))
	for i, q := range readQueries {
		rows, err := eng.DB().Query(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		wantRead[i], err = rows.Materialize()
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
	}
	wantRanks, _, err := g.PageRank(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}

	budget := eng.WorkerBudget()
	budget.ResetHighWater()
	_, addr := startServer(t, eng, Config{WorkerBudget: budgetCap, MaxSessions: 16, MaxStmtWorkers: 4})

	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	fail := func(format string, args ...interface{}) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	// 6 reader sessions: repeated mixed reads, byte-compared.
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				fail("reader %d dial: %v", r, err)
				return
			}
			defer c.Close()
			for round := 0; round < 5; round++ {
				qi := (r + round) % len(readQueries)
				rows, err := c.Query(ctx, readQueries[qi])
				if err != nil {
					fail("reader %d query %d: %v", r, qi, err)
					return
				}
				if !wire.EqualBatches(rows.Data, wantRead[qi]) {
					fail("reader %d query %d: result differs from serial baseline", r, qi)
					return
				}
			}
		}(r)
	}

	// 1 write-transaction session on its own table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			fail("writer dial: %v", err)
			return
		}
		defer c.Close()
		steps := []string{
			"CREATE TABLE w (x INTEGER)",
			"BEGIN",
			"INSERT INTO w VALUES (1), (2), (3)",
			"ROLLBACK",
			"BEGIN",
			"INSERT INTO w VALUES (10), (20)",
			"COMMIT",
		}
		for _, st := range steps {
			if _, err := c.Exec(ctx, st); err != nil {
				fail("writer %q: %v", st, err)
				return
			}
		}
		rows, err := c.Query(ctx, "SELECT x FROM w ORDER BY x")
		if err != nil || rows.Len() != 2 || rows.Value(0, 0).I != 10 || rows.Value(1, 0).I != 20 {
			fail("writer final state wrong: %v (%d rows)", err, rows.Len())
		}
	}()

	// 2 vertex-centric PageRank sessions (they serialize on the gate).
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				fail("pagerank %d dial: %v", p, err)
				return
			}
			defer c.Close()
			ranks, err := c.PageRank(ctx, "g", 6)
			if err != nil {
				fail("pagerank %d: %v", p, err)
				return
			}
			if err := testutil.DiffFloatMaps(fmt.Sprintf("pagerank session %d", p), ranks, wantRanks, 0); err != nil {
				fail("%v", err)
			}
		}(p)
	}

	// 1 cancel session: slow statement aborted mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			fail("canceller dial: %v", err)
			return
		}
		defer c.Close()
		cctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		defer cancel()
		if _, err := c.Query(cctx, "SELECT slows(created) FROM g_edge"); err == nil {
			fail("cancelled statement succeeded")
			return
		}
		// The session must still work after the cancel.
		if rows, err := c.Query(ctx, "SELECT COUNT(*) FROM g_edge"); err != nil || rows.Value(0, 0).I != int64(len(ref.Edges)) {
			fail("canceller session dead: %v", err)
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if hw := budget.HighWater(); hw > budgetCap {
		t.Errorf("worker budget overshot: high water %d > capacity %d", hw, budgetCap)
	} else if hw == 0 {
		t.Error("worker budget never used; test exercised nothing")
	}
	deadline := time.Now().Add(5 * time.Second)
	for budget.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("budget slots leaked after all sessions finished: %d", budget.InUse())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGraphVerbHonorsSessionKnobs: SET statement_timeout must govern
// graph verbs too, and the admission worker cap must reach
// vertex-centric runs.
func TestGraphVerbHonorsSessionKnobs(t *testing.T) {
	eng := vertexica.New()
	ref := testutil.RandomGraph(31, 400, 4000)
	if _, err := ref.Load(eng.DB(), "g"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng, Config{MaxStmtWorkers: 1})
	c := dialT(t, addr)
	ctx := context.Background()

	if _, err := c.Exec(ctx, "SET statement_timeout = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(ctx, "pagerank", "g", "400"); err == nil {
		t.Fatal("statement_timeout did not cancel a graph verb")
	}
	if _, err := c.Exec(ctx, "SET statement_timeout = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(ctx, "pagerank", "g", "3"); err != nil {
		t.Fatalf("graph verb after disabling timeout: %v", err)
	}
}

// TestServerGraphVerbStatsTrailer asserts that vertex-centric verbs
// ship their RunStats in the Done frame's stats trailer and that
// SQL-flavored verbs (which have no Pregel run) ship none.
func TestServerGraphVerbStatsTrailer(t *testing.T) {
	eng := vertexica.New()
	ref := testutil.RandomGraph(7, 120, 600)
	if _, err := ref.Load(eng.DB(), "g"); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, eng, Config{})
	c := dialT(t, addr)
	ctx := context.Background()

	rows, err := c.Graph(ctx, "pagerank", "g", "3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Materialize(); err != nil {
		t.Fatal(err)
	}
	stats := map[string]int64{}
	for _, s := range rows.Stats {
		stats[s.Name] = s.Value
	}
	if stats["supersteps"] < 3 {
		t.Fatalf("supersteps=%d, want >=3 (stats: %v)", stats["supersteps"], rows.Stats)
	}
	if stats["total_computed"] == 0 {
		t.Fatalf("total_computed missing (stats: %v)", rows.Stats)
	}
	if _, ok := stats["duration_us"]; !ok {
		t.Fatalf("duration_us missing (stats: %v)", rows.Stats)
	}

	// Graph statements go through the ordinary result path, so the
	// trailer also carries what every statement's does.
	if _, ok := stats["server_us"]; !ok {
		t.Fatalf("server_us missing (stats: %v)", rows.Stats)
	}
	if stats["trace_id"] == 0 {
		t.Fatalf("trace_id missing (stats: %v)", rows.Stats)
	}

	// SQL-flavored verbs compute via joins, not supersteps: no run stats.
	rows, err = c.Graph(ctx, "components-sql", "g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Materialize(); err != nil {
		t.Fatal(err)
	}
	for _, s := range rows.Stats {
		if s.Name == "supersteps" {
			t.Fatalf("components-sql shipped run stats: %v", rows.Stats)
		}
	}
}

// TestServerShowStats runs SHOW STATS over the wire and checks that
// the server's own gauges are visible alongside the engine counters.
func TestServerShowStats(t *testing.T) {
	eng := vertexica.New()
	_, addr := startServer(t, eng, Config{})
	c := dialT(t, addr)
	ctx := context.Background()

	if _, err := c.Exec(ctx, "CREATE TABLE s (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT COUNT(*) FROM s"); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, "SHOW STATS")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for i := 0; i < rows.Len(); i++ {
		got[rows.Value(i, 0).S] = rows.Value(i, 1).I
	}
	if got["server.sessions"] < 1 {
		t.Fatalf("server.sessions=%d, want >=1 (our own connection)", got["server.sessions"])
	}
	if _, ok := got["server.admit_queue_depth"]; !ok {
		t.Fatal("server.admit_queue_depth gauge missing")
	}
	if got["engine.statements.select"] < 1 {
		t.Fatalf("engine.statements.select=%d, want >=1", got["engine.statements.select"])
	}
}

// TestServerSurvivesFailedInsertSelect: an INSERT ... SELECT whose cast
// fails on a later column leaves no partial row behind, so the server
// keeps serving every session and the table's row count is unchanged.
func TestServerSurvivesFailedInsertSelect(t *testing.T) {
	eng := vertexica.New()
	_, addr := startServer(t, eng, Config{})
	c := dialT(t, addr)
	ctx := context.Background()

	for _, s := range []string{
		"CREATE TABLE t (a INTEGER, b INTEGER)",
		"CREATE TABLE s (a INTEGER, b VARCHAR)",
		"INSERT INTO t VALUES (1, 2)",
		"INSERT INTO s VALUES (3, 'x')",
	} {
		if _, err := c.Exec(ctx, s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	_, err := c.Exec(ctx, "INSERT INTO t SELECT a, b FROM s")
	if err == nil || !strings.Contains(err.Error(), `cannot cast "x" to INTEGER`) {
		t.Fatalf("INSERT ... SELECT error = %v, want the failed cast", err)
	}
	for _, conn := range []*client.Conn{c, dialT(t, addr)} {
		rows, err := conn.Query(ctx, "SELECT COUNT(*), SUM(b) FROM t")
		if err != nil {
			t.Fatalf("server stopped serving after the failed INSERT: %v", err)
		}
		if n, sum := rows.Value(0, 0).I, rows.Value(0, 1).I; n != 1 || sum != 2 {
			t.Fatalf("after the failed INSERT: COUNT = %d, SUM(b) = %d, want 1, 2", n, sum)
		}
	}
}
