package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	vertexica "repro"
	"repro/internal/client"
	"repro/internal/server"
)

func startServer(t *testing.T) string {
	t.Helper()
	srv := server.New(vertexica.New(), server.Config{})
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
	return srv.Addr()
}

func TestDialErrors(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.DialContext(ctx, "127.0.0.1:1"); err == nil {
		t.Fatal("dial with cancelled ctx succeeded")
	}
}

// TestQueryRefusesWriteBeforeRun: Query, QueryStream and a prepared
// Stmt.Query refuse a statement that returns no rows before it runs, so
// the INSERT leaves no row behind.
func TestQueryRefusesWriteBeforeRun(t *testing.T) {
	c, err := client.Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Exec(ctx, "CREATE TABLE zz (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	const ins = "INSERT INTO zz VALUES (1)"
	stmt, err := c.Prepare(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	for name, query := range map[string]func() (*client.Rows, error){
		"Conn.Query":       func() (*client.Rows, error) { return c.Query(ctx, ins) },
		"Conn.QueryStream": func() (*client.Rows, error) { return c.QueryStream(ctx, ins) },
		"Stmt.Query":       func() (*client.Rows, error) { return stmt.Query(ctx) },
	} {
		if _, err := query(); err == nil || !strings.Contains(err.Error(), "returns no rows") {
			t.Errorf("%s of an INSERT: err = %v, want a no-rows refusal", name, err)
		}
	}
	rows, err := c.Query(ctx, "SELECT COUNT(*) FROM zz")
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Value(0, 0).I; n != 0 {
		t.Errorf("COUNT(*) = %d after three refused INSERTs, want 0", n)
	}
}

func TestConnLifecycle(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if c.SessionID() == 0 || c.ServerInfo() == "" {
		t.Fatalf("handshake metadata missing: id=%d info=%q", c.SessionID(), c.ServerInfo())
	}
	if _, err := c.Exec(ctx, "CREATE TABLE t (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	// RunSQL distinguishes row results from exec results in one trip.
	rows, n, err := c.RunSQL(ctx, "INSERT INTO t VALUES (1), (2)")
	if err != nil || rows != nil || n != 2 {
		t.Fatalf("RunSQL exec: rows=%v n=%d err=%v", rows, n, err)
	}
	rows, _, err = c.RunSQL(ctx, "SELECT x FROM t ORDER BY x")
	if err != nil || rows == nil || rows.Len() != 2 {
		t.Fatalf("RunSQL select: %v", err)
	}
	// Query on an exec-only statement is refused before it runs.
	if _, err := c.Query(ctx, "INSERT INTO t VALUES (3)"); err == nil {
		t.Fatal("Query of INSERT should error")
	}
	// A pre-cancelled context fails fast without poisoning the conn.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Query(cctx, "SELECT x FROM t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err=%v", err)
	}
	if rows, err := c.Query(ctx, "SELECT COUNT(*) FROM t"); err != nil || rows.Value(0, 0).I != 2 {
		t.Fatalf("conn poisoned after cancel: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT 1"); err == nil {
		t.Fatal("query on closed conn succeeded")
	}
}
