package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	vertexica "repro"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// surfaces starts an in-process server over eng and returns the four
// ways a graph statement reaches it: an engine session, a wire client,
// and the console's embedded and remote executors.
func surfaces(t *testing.T, eng *vertexica.Engine) (*engine.Session, *client.Conn, console, console) {
	t.Helper()
	srv := server.New(eng, server.Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil && !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	dial := func() *client.Conn {
		c, err := client.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	s := eng.DB().NewSession()
	t.Cleanup(func() { s.Close() })
	return s, dial(), localConsole(eng), remoteConsole(dial())
}

// resultBatch pulls the materialized batch out of a console result.
func resultBatch(t *testing.T, r result) *storage.Batch {
	t.Helper()
	switch rows := r.(type) {
	case *vertexica.Rows:
		b, err := rows.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		return b
	case *client.Rows:
		return rows.Data
	}
	t.Fatalf("unexpected result type %T", r)
	return nil
}

// TestGraphStatementSameOnEverySurface: PAGERANK g 5 typed as a
// statement, sent as a wire Graph frame, and issued as the console's
// \pagerank command (embedded and remote) is one statement — the
// batches are identical and so are the run statistics, at workers
// 1, 2 and 8, and they match the independent reference.
func TestGraphStatementSameOnEverySurface(t *testing.T) {
	ref := testutil.RandomGraph(11, 120, 700)
	want := testutil.RefPageRank(ref, 5, 0.85)
	ctx := context.Background()
	var serial *storage.Batch
	for _, workers := range []int{1, 2, 8} {
		eng := vertexica.New()
		eng.SetParallelism(workers)
		if _, err := ref.Load(eng.DB(), "g"); err != nil {
			t.Fatal(err)
		}
		sess, conn, local, remote := surfaces(t, eng)

		rows, _, err := sess.RunStream(ctx, "PAGERANK g 5")
		if err != nil {
			t.Fatal(err)
		}
		base, err := rows.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		stats := map[string]int64{}
		for _, st := range rows.Stats {
			stats[st.Name] = st.Value
		}
		if stats["supersteps"] == 0 || stats["total_messages"] == 0 {
			t.Fatalf("workers=%d: run stats missing: %v", workers, rows.Stats)
		}
		got := make(map[int64]float64, base.Len())
		for i := 0; i < base.Len(); i++ {
			got[base.Cols[0].Value(i).I] = base.Cols[1].Value(i).F
		}
		if err := testutil.DiffFloatMaps("PAGERANK statement vs reference", got, want, 1e-9); err != nil {
			t.Error(err)
		}
		if serial == nil {
			serial = base
		} else if !wire.EqualBatches(base, serial) {
			t.Errorf("workers=%d: result differs from workers=1", workers)
		}

		framed, err := conn.Graph(ctx, "pagerank", "g", "5")
		if err != nil {
			t.Fatal(err)
		}
		if !wire.EqualBatches(framed.Data, base) {
			t.Errorf("workers=%d: Graph frame result differs from the statement's", workers)
		}
		for _, st := range framed.Stats {
			if (st.Name == "supersteps" || st.Name == "total_messages") && st.Value != stats[st.Name] {
				t.Errorf("workers=%d: Graph frame %s = %d, statement says %d", workers, st.Name, st.Value, stats[st.Name])
			}
		}
		for name, con := range map[string]console{"embedded": local, "remote": remote} {
			res, _, err := con.run(graphStatement(`\pagerank g 5`))
			if err != nil {
				t.Fatalf("workers=%d %s console: %v", workers, name, err)
			}
			if !wire.EqualBatches(resultBatch(t, res), base) {
				t.Errorf("workers=%d: %s console result differs from the statement's", workers, name)
			}
		}
	}
}

// TestGraphStatementRefusedInTransaction: inside BEGIN a graph
// statement is refused with the same error whichever surface carries
// it, and the session stays usable.
func TestGraphStatementRefusedInTransaction(t *testing.T) {
	eng := vertexica.New()
	if _, err := testutil.RandomGraph(3, 30, 90).Load(eng.DB(), "g"); err != nil {
		t.Fatal(err)
	}
	sess, conn, local, remote := surfaces(t, eng)
	ctx := context.Background()
	const want = "engine: cannot run PAGERANK inside a transaction"

	attempts := map[string]struct {
		begin, try, end func() error
	}{
		"session text": {
			func() error { _, _, err := sess.Run(ctx, "BEGIN"); return err },
			func() error { _, _, err := sess.Run(ctx, "PAGERANK g 2"); return err },
			func() error { _, _, err := sess.Run(ctx, "ROLLBACK"); return err },
		},
		"graph frame": {
			func() error { _, err := conn.Exec(ctx, "BEGIN"); return err },
			func() error { _, err := conn.Graph(ctx, "pagerank", "g", "2"); return err },
			func() error { _, err := conn.Exec(ctx, "ROLLBACK"); return err },
		},
	}
	for name, con := range map[string]console{"embedded console": local, "remote console": remote} {
		con := con
		run := func(stmt string) func() error {
			return func() error { _, _, err := con.run(stmt); return err }
		}
		attempts[name] = struct{ begin, try, end func() error }{
			run("BEGIN"), run(graphStatement(`\pagerank g 2`)), run("ROLLBACK"),
		}
	}
	// One transaction at a time: each surface's BEGIN holds the write gate.
	for name, a := range attempts {
		if err := a.begin(); err != nil {
			t.Fatalf("%s: BEGIN: %v", name, err)
		}
		if err := a.try(); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
		if err := a.end(); err != nil {
			t.Fatalf("%s: ROLLBACK: %v", name, err)
		}
		if err := a.try(); err != nil {
			t.Errorf("%s: after ROLLBACK: %v", name, err)
		}
	}
	// Plain EXPLAIN only reads, so it stays allowed; ANALYZE runs.
	if _, _, err := sess.Run(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Run(ctx, "EXPLAIN PAGERANK g 2"); err != nil {
		t.Errorf("EXPLAIN inside a transaction: %v", err)
	}
	if _, _, err := sess.Run(ctx, "EXPLAIN ANALYZE PAGERANK g 2"); err == nil || err.Error() != want {
		t.Errorf("EXPLAIN ANALYZE inside a transaction: err = %v, want %q", err, want)
	}
	if _, _, err := sess.Run(ctx, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

func TestGraphStatementSugar(t *testing.T) {
	for line, want := range map[string]string{
		`\pagerank g 10`:        "PAGERANK g 10",
		`\pagerank-sql g`:       "PAGERANK_SQL g",
		`\load twitter 0.01`:    "LOAD twitter 0.01",
		`\graphs`:               "GRAPHS ",
		`\components-sql   g  `: "COMPONENTS_SQL   g  ",
	} {
		if got := graphStatement(line); got != want {
			t.Errorf("graphStatement(%q) = %q, want %q", line, got, want)
		}
	}
	if _, _, err := localConsole(vertexica.New()).run(graphStatement(`\graphs`)); err != nil {
		t.Error(fmt.Errorf(`\graphs: %w`, err))
	}
}

// printed runs fn with os.Stdout redirected and returns what it wrote.
func printed(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	fn()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDigestFollowsTheVerb: only graph statements get an algorithm
// digest. SQL whose columns happen to be named like a graph result's
// (rank, dist, component) prints its rows, whatever its column count.
func TestDigestFollowsTheVerb(t *testing.T) {
	eng := vertexica.New()
	if _, err := testutil.RandomGraph(5, 40, 160).Load(eng.DB(), "g"); err != nil {
		t.Fatal(err)
	}
	con := localConsole(eng)
	con.statement("CREATE TABLE t(id INTEGER, dist INTEGER)")
	con.statement("INSERT INTO t VALUES (1, 2)")
	for stmt, want := range map[string]string{
		"SELECT dist FROM t":                  "dist\n2\n1 rows",
		"SELECT id AS x, dist AS rank FROM t": "x | rank\n1 | 2\n1 rows",
		"SELECT id, dist AS component FROM t": "id | component\n1 | 2\n1 rows",
		"SELECT id, id, dist AS dist FROM t":  "id | id | dist\n1 | 1 | 2\n1 rows",
		`\sssp g 0`:                           "vertices reachable (",
		"SSSP_SQL g 0":                        "vertices reachable (",
		"components g":                        "components (",
		"EXPLAIN SSSP g 0":                    "plan\n",
	} {
		line := stmt
		out := printed(t, func() {
			if strings.HasPrefix(line, `\`) {
				con.command(line)
			} else {
				con.statement(line)
			}
		})
		if !strings.Contains(out, want) {
			t.Errorf("%s printed %q, want it to contain %q", stmt, out, want)
		}
	}
	if out := printed(t, func() { con.command(`\pagerank g 3`) }); strings.Count(out, "\n") != 11 {
		t.Errorf(`\pagerank g 3 printed %q, want the top ten and a timing line`, out)
	}
}
