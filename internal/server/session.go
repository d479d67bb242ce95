package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/wire"
)

// maxStmtArgs bounds the argument count of one BindExec or Graph
// frame: the reader pre-allocates an args slice from the client-
// supplied count, so the count must be capped before allocation.
const maxStmtArgs = 1 << 10

// stmtKind discriminates queued statement requests.
type stmtKind uint8

const (
	stmtSQL stmtKind = iota
	stmtBindExec
)

// stmtReq is one statement handed from the reader to the executor.
type stmtReq struct {
	kind stmtKind
	id   uint32
	enq  time.Time       // when the reader enqueued it (admission-queue wait)
	sql  string          // stmtSQL
	prep uint32          // stmtBindExec
	args []storage.Value // stmtBindExec
	// rows refuses a statement that returns no rows before it runs
	// (the frame's optional "rows expected" flag).
	rows bool
}

// session is one client connection's server-side state.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	es   *engine.Session

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	reqs chan stmtReq

	prepMu   sync.Mutex
	prepared map[uint32]string

	inflightMu  sync.Mutex
	inflightID  uint32
	cancel      context.CancelFunc
	lastStarted uint32          // highest statement id that has begun executing
	cancelled   map[uint32]bool // cancels that arrived before their statement started
}

// handle runs one connection to completion.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	ss := &session{
		srv:       s,
		conn:      conn,
		br:        bufio.NewReader(conn),
		bw:        bufio.NewWriter(conn),
		reqs:      make(chan stmtReq, 8),
		prepared:  make(map[uint32]string),
		cancelled: make(map[uint32]bool),
	}

	// Handshake.
	typ, payload, err := wire.ReadFrame(ss.br)
	if err != nil || typ != wire.FrameHello {
		return
	}
	r := &wire.Reader{B: payload}
	version := r.Uvarint()
	clientName := r.String()
	if r.Err != nil || version != wire.ProtocolVersion {
		ss.writeError(0, fmt.Sprintf("unsupported protocol version %d (server speaks %d)", version, wire.ProtocolVersion))
		return
	}
	id, err := s.admit(ss)
	if err != nil {
		ss.writeError(0, err.Error())
		return
	}
	ss.id = id
	defer s.unadmit(id)
	ss.es = s.eng.DB().NewSessionMaxWorkers(s.cfg.MaxStmtWorkers)
	defer ss.es.Close() // rolls back an abandoned transaction

	var hello wire.Buffer
	hello.PutUvarint(id)
	hello.PutString(fmt.Sprintf("vertexica (budget=%d, max_sessions=%d)",
		s.eng.WorkerBudget().Capacity(), s.cfg.MaxSessions))
	if err := ss.writeFrame(wire.FrameHelloOK, hello.B); err != nil {
		return
	}
	s.logf("session %d: connected (%s)", id, clientName)

	// Executor goroutine: statements run serially per session.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for req := range ss.reqs {
			ss.runStmt(req)
		}
	}()
	ss.readLoop()
	close(ss.reqs)
	wg.Wait()
	s.logf("session %d: disconnected", id)
}

// readLoop parses client frames until EOF/error. Cancel frames are
// handled inline (they must overtake queued statements); everything
// else is enqueued for the executor.
func (ss *session) readLoop() {
	for {
		typ, payload, err := wire.ReadFrame(ss.br)
		if err != nil {
			return
		}
		r := &wire.Reader{B: payload}
		switch typ {
		case wire.FrameQuery:
			id := r.U32()
			sqlText := r.String()
			rows := r.Flag()
			if r.Err != nil {
				return
			}
			ss.enqueue(stmtReq{kind: stmtSQL, id: id, sql: sqlText, rows: rows})
		case wire.FramePrepare:
			prep := r.U32()
			sqlText := r.String()
			if r.Err != nil {
				return
			}
			ss.prepMu.Lock()
			ss.prepared[prep] = sqlText
			ss.prepMu.Unlock()
			var b wire.Buffer
			b.PutU32(prep)
			ss.writeFrame(wire.FramePrepareOK, b.B)
		case wire.FrameBindExec:
			id := r.U32()
			prep := r.U32()
			nargs := r.Uvarint()
			// Every encoded value takes >= 2 bytes, and no sane
			// statement binds thousands of parameters: both bounds
			// guard the pre-allocation against a hostile count (a
			// 64 MiB payload must not demand a multi-GB slice).
			if r.Err != nil || nargs > uint64(len(r.B))/2 || nargs > maxStmtArgs {
				ss.writeError(id, "malformed bind: too many arguments")
				continue
			}
			args := make([]storage.Value, nargs)
			for i := range args {
				args[i] = r.Value()
			}
			rows := r.Flag()
			if r.Err != nil {
				return
			}
			ss.enqueue(stmtReq{kind: stmtBindExec, id: id, prep: prep, args: args, rows: rows})
		case wire.FrameGraph:
			id := r.U32()
			verb := r.String()
			nargs := r.Uvarint()
			if r.Err != nil || nargs > uint64(len(r.B)) || nargs > maxStmtArgs {
				ss.writeError(id, "malformed graph verb: too many arguments")
				continue
			}
			argv := make([]string, nargs)
			for i := range argv {
				argv[i] = r.String()
			}
			if r.Err != nil {
				return
			}
			// A Graph frame is sugar for the graph statement of the same
			// name: the wire's historical dashed verbs (pagerank-sql) map
			// to the SQL spelling (PAGERANK_SQL), and the statement runs
			// through the ordinary lifecycle. The verb is rendered bare, so
			// anything but one identifier (a SQL keyword, several words)
			// would re-parse as some other statement: refuse it here.
			g := sql.GraphStmt{Verb: strings.ReplaceAll(verb, "-", "_"), Args: argv}
			if toks, err := sql.Tokenize(g.Verb); err != nil || len(toks) != 2 || toks[0].Kind != sql.TokIdent {
				ss.writeError(id, fmt.Sprintf("unknown graph verb %q", verb))
				continue
			}
			ss.enqueue(stmtReq{kind: stmtSQL, id: id, sql: g.String()})
		case wire.FrameCancel:
			ss.cancelStmt(r.U32())
		case wire.FrameGoodbye:
			return
		default:
			return // protocol violation: drop the connection
		}
	}
}

// enqueue hands a statement to the executor, rejecting instead of
// blocking when the client has over-pipelined.
func (ss *session) enqueue(req stmtReq) {
	req.enq = time.Now()
	select {
	case ss.reqs <- req:
	default:
		ss.writeError(req.id, "statement queue full (pipeline depth exceeded)")
	}
}

// setInflight installs the current statement's cancel hook. If a
// cancel frame for this statement already arrived (cancel can overtake
// the executor picking the statement off the queue), it fires
// immediately — cancellation is sticky, never lost to that race.
func (ss *session) setInflight(id uint32, cancel context.CancelFunc) {
	ss.inflightMu.Lock()
	ss.inflightID = id
	ss.cancel = cancel
	if cancel != nil {
		if id > ss.lastStarted {
			ss.lastStarted = id
		}
		if ss.cancelled[id] {
			delete(ss.cancelled, id)
			cancel()
		}
	}
	ss.inflightMu.Unlock()
}

func (ss *session) clearInflight() { ss.setInflight(0, nil) }

// cancelStmt cancels the statement with the given id: immediately if
// it is in flight, or by marking it so it dies at start if it is still
// queued. A cancel for a statement that already started AND finished
// (the client's deadline losing the race with completion — the common
// case for deadline-bounded queries) is dropped, keeping the pending
// set bounded by the statement queue depth.
func (ss *session) cancelStmt(id uint32) {
	ss.inflightMu.Lock()
	defer ss.inflightMu.Unlock()
	if ss.cancel != nil && ss.inflightID == id {
		ss.cancel()
		return
	}
	if id <= ss.lastStarted {
		return // already completed; nothing to cancel
	}
	ss.cancelled[id] = true
}

// cancelInflight force-cancels whatever runs now (forced shutdown).
func (ss *session) cancelInflight() {
	ss.inflightMu.Lock()
	defer ss.inflightMu.Unlock()
	if ss.cancel != nil {
		ss.cancel()
	}
}

// runStmt executes one statement and streams its response frames.
func (ss *session) runStmt(req stmtReq) {
	if !ss.srv.beginStmt() {
		ss.writeError(req.id, "server is shutting down")
		return
	}
	defer ss.srv.endStmt()

	ctx, cancel := context.WithCancel(context.Background())
	ss.setInflight(req.id, cancel)
	defer func() {
		ss.clearInflight()
		cancel()
	}()

	// The time between the reader enqueueing the statement and the
	// executor picking it up is admission-queue wait (the session runs
	// statements serially; a pipelined statement waits for its
	// predecessors). The engine folds it into the statement's trace as
	// the leading "admission" span.
	if !req.enq.IsZero() {
		ss.es.NoteQueueWait(time.Since(req.enq))
	}

	text, bound := req.sql, req.kind == stmtBindExec
	if bound {
		ss.prepMu.Lock()
		t, ok := ss.prepared[req.prep]
		ss.prepMu.Unlock()
		if !ok {
			ss.writeError(req.id, fmt.Sprintf("unknown prepared statement %d", req.prep))
			return
		}
		text = t
	}
	// A SELECT result streams: the executor produces batches while
	// earlier ones are already on the wire. A bound statement's raw
	// argument values reach the engine, which binds them as Param
	// nodes — no substitution, no re-parse on the hot path.
	start := time.Now()
	var (
		rows *engine.Rows
		res  engine.Result
		err  error
	)
	switch {
	case req.rows:
		rows, err = ss.es.QueryStream(ctx, text, bound, req.args)
	case bound:
		rows, res, err = ss.es.RunStreamBound(ctx, text, req.args)
	default:
		rows, res, err = ss.es.RunStream(ctx, text)
	}
	ss.writeResult(req.id, rows, res, err, start)
}

// stmtStats builds the Done-frame trailer: the statistics the statement
// reported with its rows (a graph statement's run statistics), the
// server-side elapsed time and — when the statement was traced — its
// trace id, so a client can join its own latency observation against
// vx$traces without a second round trip. Evaluated after the stream has
// drained (the trace is finished by then).
func (ss *session) stmtStats(rows *engine.Rows, start time.Time) []wire.Stat {
	var stats []wire.Stat
	if rows != nil {
		for _, s := range rows.Stats {
			stats = append(stats, wire.Stat(s))
		}
	}
	stats = append(stats, wire.Stat{Name: "server_us", Value: time.Since(start).Microseconds()})
	if tid := ss.es.LastTraceID(); tid != 0 {
		stats = append(stats, wire.Stat{Name: "trace_id", Value: int64(tid)})
	}
	return stats
}

// writeResult frames one statement outcome: an error, a row stream, or
// an exec acknowledgement. start anchors the Done trailer's server-side
// timing.
func (ss *session) writeResult(id uint32, rows *engine.Rows, res engine.Result, err error, start time.Time) {
	if err != nil {
		ss.writeError(id, err.Error())
		return
	}
	if rows != nil {
		ss.writeRows(id, rows, start)
		return
	}
	var b wire.Buffer
	b.PutU32(id)
	b.PutUvarint(uint64(res.RowsAffected))
	ss.writeFrame(wire.FrameExecOK, b.B)
	ss.writeDone(id, ss.stmtStats(nil, start))
}

// writeRows streams a result: header, then column-wise batches of at
// most storage.BatchSize rows as the iterator yields them, then Done.
// The first RowsBatch frame ships before the executor has finished —
// first-row latency for a big scan is O(first batch), not O(result).
// A mid-stream failure (executor error, encoder error) terminates the
// statement with a FrameError and nothing after it: the client
// discards any rows already received and surfaces only the error. The
// Done trailer is built after the stream has fully drained —
// statement-lifecycle cleanup (trace publication, slow-query logging)
// has already run, so it may read the statement's trace id.
func (ss *session) writeRows(id uint32, rows *engine.Rows, start time.Time) {
	defer rows.Close()
	var hdr wire.Buffer
	hdr.PutU32(id)
	wire.AppendSchema(&hdr, rows.Schema())
	if err := ss.writeFrame(wire.FrameRowsHeader, hdr.B); err != nil {
		return
	}
	for {
		batch, err := rows.Next()
		if err != nil {
			ss.writeError(id, err.Error())
			return
		}
		if batch == nil {
			break
		}
		n := batch.Len()
		for lo := 0; lo < n; lo += storage.BatchSize {
			hi := lo + storage.BatchSize
			if hi > n {
				hi = n
			}
			var b wire.Buffer
			b.PutU32(id)
			part := batch
			if lo != 0 || hi != n {
				part = batch.Slice(lo, hi)
			}
			if err := wire.AppendBatch(&b, part); err != nil {
				ss.writeError(id, err.Error())
				return
			}
			if err := ss.writeFrame(wire.FrameRowsBatch, b.B); err != nil {
				return
			}
		}
	}
	ss.writeDone(id, ss.stmtStats(rows, start))
}

func (ss *session) writeFrame(typ byte, payload []byte) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	// Bound the write: a result stream pins its MVCC snapshot and a
	// session slot, so a client that stops draining its socket must
	// not hold them forever (writers are unaffected either way). Past
	// the deadline the connection is effectively dead and the
	// statement's stream unwinds.
	if ss.srv != nil && ss.srv.cfg.WriteTimeout > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(ss.srv.cfg.WriteTimeout))
		defer ss.conn.SetWriteDeadline(time.Time{})
	}
	if err := wire.WriteFrame(ss.bw, typ, payload); err != nil {
		ss.conn.Close() // possibly truncated frame: the protocol state is unrecoverable
		return err
	}
	if err := ss.bw.Flush(); err != nil {
		ss.conn.Close()
		return err
	}
	return nil
}

func (ss *session) writeError(id uint32, msg string) {
	var b wire.Buffer
	b.PutU32(id)
	b.PutString(msg)
	ss.writeFrame(wire.FrameError, b.B)
}

func (ss *session) writeDone(id uint32, stats []wire.Stat) {
	var b wire.Buffer
	b.PutU32(id)
	b.PutStats(stats)
	ss.writeFrame(wire.FrameDone, b.B)
}
