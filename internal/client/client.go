// Package client is the Go client for the Vertexica wire protocol:
// database/sql-style Query/Exec/Prepare over a TCP connection, plus
// the graph-algorithm RPCs (\pagerank and friends as server verbs).
// Results arrive as column-wise encoded batches; Query materializes
// them into a storage.Batch, so a client-side result is byte-identical
// to the in-process engine.Rows for the same statement — the
// differential harness asserts exactly that — while QueryStream
// extends the server's streaming execution to the last hop: Rows.Next
// decodes one frame at a time on demand, so the first batch is usable
// while the server is still producing the rest.
//
// A Conn runs one statement at a time (like a SQL session). Cancel a
// running statement through its context: the client sends a cancel
// frame keyed by the statement id and the server aborts the statement
// mid-execution, freeing its worker-budget slots.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// Rows is a query result. From Query it is materialized (Data holds
// every row, the random-access API works immediately). From
// QueryStream it is an iterator: Next decodes one RowsBatch frame on
// demand; the connection's statement slot stays occupied until the
// stream finishes, so drain to nil or Close promptly. Materialize is
// the compatibility shim that drains whatever remains into Data.
type Rows struct {
	// Data holds all result rows once materialized (nil while
	// streaming); Schema gives names and types.
	Data *storage.Batch

	// Stats holds the Done frame's stats trailer, if the server sent
	// one (graph verbs report their RunStats this way: supersteps,
	// cache hits, skipped partitions, duration). Populated only once
	// the stream has finished cleanly; nil otherwise.
	Stats []wire.Stat

	c      *Conn
	ctx    context.Context
	id     uint32
	schema storage.Schema
	done   bool
	err    error
	finish func() // idempotent: stop the cancel watcher, free the statement slot
	pos    int    // Next cursor over materialized Data
}

// Schema returns the result schema (available before the first batch).
func (r *Rows) Schema() storage.Schema { return r.schema }

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.schema.Names() }

// Next returns the next batch of rows, or nil at end of stream. On a
// streaming result it decodes the next frame from the wire — the
// server may still be executing the statement. On a materialized
// result it serves storage.BatchSize slices of Data.
func (r *Rows) Next() (*storage.Batch, error) {
	if r.Data != nil {
		n := r.Data.Len()
		if r.pos >= n {
			return nil, nil
		}
		end := r.pos + storage.BatchSize
		if end > n {
			end = n
		}
		b := r.Data
		if r.pos != 0 || end != n {
			b = r.Data.Slice(r.pos, end)
		}
		r.pos = end
		return b, nil
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.done {
		return nil, nil
	}
	for {
		typ, payload, err := wire.ReadFrame(r.c.br)
		if err != nil {
			r.fail(err)
			return nil, r.err
		}
		rd := &wire.Reader{B: payload}
		if rd.U32() != r.id {
			continue // stale frame from an earlier, cancelled exchange
		}
		switch typ {
		case wire.FrameRowsBatch:
			b, err := wire.ReadBatch(rd, r.schema)
			if err != nil {
				r.fail(err)
				return nil, r.err
			}
			return b, nil
		case wire.FrameError:
			// Error is terminal: no Done follows it. Prefer the
			// caller's cancellation cause, like the materialized path.
			msg := rd.String()
			if cerr := r.ctx.Err(); cerr != nil {
				r.fail(cerr)
			} else {
				r.fail(&ServerError{Msg: msg})
			}
			return nil, r.err
		case wire.FrameDone:
			r.Stats = rd.Stats()
			r.done = true
			r.finish()
			return nil, nil
		}
	}
}

// fail terminates the stream with err and frees the statement slot.
func (r *Rows) fail(err error) {
	r.err = err
	r.finish()
}

// Err returns the error that terminated the stream, if any.
func (r *Rows) Err() error { return r.err }

// Stat returns the named stat from the Done frame's trailer. Valid only
// after the stream finished cleanly (Stats is nil before that).
func (r *Rows) Stat(name string) (int64, bool) {
	for _, s := range r.Stats {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// TraceID returns the server-assigned statement trace id, or 0 if the
// statement was not traced (sampling off) or the stream has not
// finished. The id joins against the server's vx$traces and
// vx$trace_spans system tables and its slow-query log.
func (r *Rows) TraceID() uint64 {
	v, _ := r.Stat("trace_id")
	return uint64(v)
}

// ServerTime returns the server-side elapsed time for the statement
// (admission to final frame), or 0 if the server sent no timing. The
// difference against the client's own measurement is time spent on the
// wire.
func (r *Rows) ServerTime() time.Duration {
	v, _ := r.Stat("server_us")
	return time.Duration(v) * time.Microsecond
}

// Close finishes a streaming result early: it asks the server to
// cancel the statement, drains the remaining frames (the statement
// slot is unusable until the server's terminal frame arrives), and
// frees the slot. It is a no-op on a finished or materialized result
// and safe to call multiple times.
func (r *Rows) Close() error {
	if r.c == nil || r.done || r.err != nil || r.Data != nil {
		return nil
	}
	// Best-effort cancel so a big remaining result dies server-side
	// instead of being shipped just to be discarded.
	var b wire.Buffer
	b.PutU32(r.id)
	r.c.writeFrame(wire.FrameCancel, b.B)
	for {
		batch, err := r.Next()
		if err != nil {
			return nil // terminal: the slot is already freed
		}
		if batch == nil {
			return nil
		}
	}
}

// Materialize drains whatever remains of the stream into Data and
// returns it — the compatibility shim for batch-at-once callers. On an
// already-materialized result it returns Data unchanged.
func (r *Rows) Materialize() (*storage.Batch, error) {
	if r.Data != nil {
		return r.Data, nil
	}
	if r.err != nil {
		return nil, r.err
	}
	out := storage.NewBatch(r.schema)
	for {
		b, err := r.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := storage.Concat(out, b); err != nil {
			r.fail(err)
			return nil, err
		}
	}
	r.Data = out
	r.pos = 0 // Data holds only unconsumed batches; Next serves them
	return out, nil
}

// mustData returns the materialized batch, draining a stream on first
// use (errors surface as an empty result with Err set).
func (r *Rows) mustData() *storage.Batch {
	if r.Data == nil {
		if _, err := r.Materialize(); err != nil {
			return storage.NewBatch(r.schema)
		}
	}
	return r.Data
}

// Len returns the number of rows (materializing a stream).
func (r *Rows) Len() int { return r.mustData().Len() }

// Value returns the value at (row, col) (materializing a stream).
func (r *Rows) Value(row, col int) storage.Value { return r.mustData().Cols[col].Value(row) }

// ServerError is an error reported by the server for one statement.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// Conn is one client connection (= one server session).
type Conn struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // frame writes (cancel races the statement loop)
	smu sync.Mutex // one statement at a time

	nextStmt uint32
	nextPrep uint32

	sessionID  uint64
	serverInfo string
}

// Dial connects and handshakes with the server at addr.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial with connect cancellation.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	d := net.Dialer{}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{conn: nc, br: bufio.NewReader(nc)}
	var hello wire.Buffer
	hello.PutUvarint(wire.ProtocolVersion)
	hello.PutString("vertexica-go-client")
	if err := c.writeFrame(wire.FrameHello, hello.B); err != nil {
		nc.Close()
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		nc.SetReadDeadline(dl)
		defer nc.SetReadDeadline(time.Time{})
	}
	typ, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		nc.Close()
		return nil, err
	}
	r := &wire.Reader{B: payload}
	switch typ {
	case wire.FrameHelloOK:
		c.sessionID = r.Uvarint()
		c.serverInfo = r.String()
		if r.Err != nil {
			nc.Close()
			return nil, r.Err
		}
		return c, nil
	case wire.FrameError:
		r.U32()
		msg := r.String()
		nc.Close()
		return nil, &ServerError{Msg: msg}
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame %#x", typ)
	}
}

// SessionID returns the server-assigned session id.
func (c *Conn) SessionID() uint64 { return c.sessionID }

// ServerInfo returns the server's handshake banner.
func (c *Conn) ServerInfo() string { return c.serverInfo }

// Close says goodbye and closes the connection. An open transaction
// is rolled back server-side.
func (c *Conn) Close() error {
	c.wmu.Lock()
	wire.WriteFrame(c.conn, wire.FrameGoodbye, nil)
	c.wmu.Unlock()
	return c.conn.Close()
}

func (c *Conn) writeFrame(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.WriteFrame(c.conn, typ, payload)
}

// RunSQL executes any statement in one round trip: SELECT/SHOW (and
// graph-verb results) return rows with nil == no result set; DML and
// session control return nil rows and the affected count. This is the
// wire analogue of Engine.SQL.
func (c *Conn) RunSQL(ctx context.Context, sqlText string) (*Rows, int, error) {
	return c.roundTrip(ctx, queryFrame(sqlText, false))
}

// queryFrame builds a Query frame. With rows set, the server refuses a
// statement that returns no rows before running it.
func queryFrame(sqlText string, rows bool) func(id uint32) (byte, []byte) {
	return func(id uint32) (byte, []byte) {
		var b wire.Buffer
		b.PutU32(id)
		b.PutString(sqlText)
		b.PutFlag(rows)
		return wire.FrameQuery, b.B
	}
}

// Query runs a statement expected to return rows (SELECT, SHOW, or a
// graph verb result), materialized. Any other statement is refused
// server-side before it runs.
func (c *Conn) Query(ctx context.Context, sqlText string) (*Rows, error) {
	rows, _, err := c.roundTrip(ctx, queryFrame(sqlText, true))
	return rows, err
}

// QueryStream runs a SELECT and returns an iterator over its result:
// Rows.Next decodes one batch frame at a time as the server ships it,
// so the first rows are usable in O(first batch) — streaming all the
// way from the executor to this process. The connection runs one
// statement at a time, so drain the rows to nil or Close them before
// issuing the next statement. ctx governs the whole stream: cancelling
// it aborts the statement server-side mid-drain. A statement that
// returns no rows is refused server-side before it runs.
func (c *Conn) QueryStream(ctx context.Context, sqlText string) (*Rows, error) {
	rows, _, err := c.startStmt(ctx, true, queryFrame(sqlText, true))
	return rows, err
}

// Exec runs a statement for its effect, returning the affected row
// count (SELECTs return their row count).
func (c *Conn) Exec(ctx context.Context, sqlText string) (int, error) {
	rows, affected, err := c.RunSQL(ctx, sqlText)
	if err != nil {
		return 0, err
	}
	if rows != nil {
		return rows.Len(), nil
	}
	return affected, nil
}

// Graph invokes a server-side graph verb (pagerank, sssp, components,
// triangles, load, graphs, ...) and returns its result rows.
func (c *Conn) Graph(ctx context.Context, verb string, args ...string) (*Rows, error) {
	rows, _, err := c.roundTrip(ctx, func(id uint32) (byte, []byte) {
		var b wire.Buffer
		b.PutU32(id)
		b.PutString(verb)
		b.PutUvarint(uint64(len(args)))
		for _, a := range args {
			b.PutString(a)
		}
		return wire.FrameGraph, b.B
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// PageRank runs server-side PageRank and returns id→rank.
func (c *Conn) PageRank(ctx context.Context, graph string, iters int) (map[int64]float64, error) {
	rows, err := c.Graph(ctx, "pagerank", graph, fmt.Sprint(iters))
	if err != nil {
		return nil, err
	}
	return floatMap(rows)
}

// floatMap converts an (id, value) result into a map.
func floatMap(rows *Rows) (map[int64]float64, error) {
	if len(rows.Data.Cols) != 2 {
		return nil, fmt.Errorf("client: expected (id, value) result, got %d columns", len(rows.Data.Cols))
	}
	out := make(map[int64]float64, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		out[rows.Value(i, 0).I] = rows.Value(i, 1).F
	}
	return out, nil
}

// Stmt is a prepared statement with $1..$n parameters.
type Stmt struct {
	c  *Conn
	id uint32
}

// Prepare registers a parameterized statement on the server. If ctx
// is cancelled while waiting for the server's acknowledgement, the
// read is unblocked via a connection deadline and the context error
// returned (the connection is no longer usable afterwards — a
// half-read frame cannot be resynchronized).
func (c *Conn) Prepare(ctx context.Context, sqlText string) (*Stmt, error) {
	c.smu.Lock()
	defer c.smu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.nextPrep++
	id := c.nextPrep
	var b wire.Buffer
	b.PutU32(id)
	b.PutString(sqlText)
	if err := c.writeFrame(wire.FramePrepare, b.B); err != nil {
		return nil, err
	}
	watchDone := make(chan struct{})
	watcherExited := make(chan struct{})
	go func() {
		defer close(watcherExited)
		select {
		case <-ctx.Done():
			c.conn.SetReadDeadline(time.Now()) // unblock ReadFrame
		case <-watchDone:
		}
	}()
	// Stop the watcher BEFORE clearing the deadline: a context firing
	// right as Prepare succeeds must not re-install a past deadline
	// after the clear and poison every later read on this connection.
	defer func() {
		close(watchDone)
		<-watcherExited
		c.conn.SetReadDeadline(time.Time{})
	}()
	for {
		typ, payload, err := wire.ReadFrame(c.br)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
		r := &wire.Reader{B: payload}
		switch typ {
		case wire.FramePrepareOK:
			if r.U32() == id {
				return &Stmt{c: c, id: id}, nil
			}
		case wire.FrameError:
			r.U32()
			return nil, &ServerError{Msg: r.String()}
		}
	}
}

// Query executes the prepared statement with args, returning rows. A
// statement that returns no rows is refused server-side before it
// runs.
func (s *Stmt) Query(ctx context.Context, args ...storage.Value) (*Rows, error) {
	rows, _, err := s.run(ctx, args, true)
	return rows, err
}

// Exec executes the prepared statement with args for its effect.
func (s *Stmt) Exec(ctx context.Context, args ...storage.Value) (int, error) {
	rows, affected, err := s.run(ctx, args, false)
	if err != nil {
		return 0, err
	}
	if rows != nil {
		return rows.Len(), nil
	}
	return affected, nil
}

func (s *Stmt) run(ctx context.Context, args []storage.Value, rows bool) (*Rows, int, error) {
	return s.c.roundTrip(ctx, func(id uint32) (byte, []byte) {
		var b wire.Buffer
		b.PutU32(id)
		b.PutU32(s.id)
		b.PutUvarint(uint64(len(args)))
		for _, a := range args {
			b.PutValue(a)
		}
		b.PutFlag(rows)
		return wire.FrameBindExec, b.B
	})
}

// roundTrip runs one materialized statement exchange: write the
// request frame, watch ctx for cancellation (sending a cancel frame
// keyed by the statement id), and read response frames until Done.
func (c *Conn) roundTrip(ctx context.Context, build func(id uint32) (byte, []byte)) (*Rows, int, error) {
	return c.startStmt(ctx, false, build)
}

// startStmt is the shared statement machinery behind roundTrip and
// QueryStream. With stream set, it returns as soon as the result
// header arrives: the statement slot (smu) and the cancellation
// watcher stay alive, owned by the returned Rows, until the stream's
// terminal frame; without it, the result is drained and everything
// released before returning.
func (c *Conn) startStmt(ctx context.Context, stream bool, build func(id uint32) (byte, []byte)) (*Rows, int, error) {
	c.smu.Lock()
	released := false
	release := func() {
		if !released {
			released = true
			c.smu.Unlock()
		}
	}
	if err := ctx.Err(); err != nil {
		release()
		return nil, 0, err
	}
	c.nextStmt++
	id := c.nextStmt
	typ, payload := build(id)
	if err := c.writeFrame(typ, payload); err != nil {
		release()
		return nil, 0, err
	}

	watchDone := make(chan struct{})
	watchStopped := false
	go func() {
		select {
		case <-ctx.Done():
			var b wire.Buffer
			b.PutU32(id)
			c.writeFrame(wire.FrameCancel, b.B)
		case <-watchDone:
		}
	}()
	finish := func() {
		if !watchStopped {
			watchStopped = true
			close(watchDone)
		}
		release()
	}

	affected := 0
	for {
		ftyp, fpay, err := wire.ReadFrame(c.br)
		if err != nil {
			finish()
			return nil, 0, err
		}
		r := &wire.Reader{B: fpay}
		fid := r.U32()
		if fid != id {
			continue // stale frame from an earlier, cancelled exchange
		}
		switch ftyp {
		case wire.FrameRowsHeader:
			schema, err := wire.ReadSchema(r)
			if err != nil {
				finish()
				return nil, 0, err
			}
			rows := &Rows{c: c, ctx: ctx, id: id, schema: schema, finish: finish}
			if stream {
				// The caller iterates; finish runs at the terminal
				// frame (Done, Error, or a read failure).
				return rows, 0, nil
			}
			if _, err := rows.Materialize(); err != nil {
				return nil, 0, err // Materialize already finished the stream
			}
			return rows, 0, nil
		case wire.FrameExecOK:
			affected = int(r.Uvarint())
		case wire.FrameError:
			// Error is terminal: no Done follows it. Surface the
			// caller's cancellation cause when there is one.
			msg := r.String()
			finish()
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			return nil, 0, &ServerError{Msg: msg}
		case wire.FrameDone:
			finish()
			return nil, affected, nil
		}
	}
}
