package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	vertexica "repro"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wire"
)

// gateOp emits one batch, then refuses to produce the second until the
// gate channel is closed. It proves writeRows streams: the first
// RowsBatch frame must reach the client while the operator still has
// output pending.
type gateOp struct {
	schema storage.Schema
	gate   chan struct{}
	sent   int
}

func (g *gateOp) Schema() storage.Schema { return g.schema }
func (g *gateOp) Open() error            { g.sent = 0; return nil }
func (g *gateOp) Close() error           { return nil }

func (g *gateOp) Next() (*storage.Batch, error) {
	switch g.sent {
	case 0:
		g.sent++
		return g.batch(1), nil
	case 1:
		select {
		case <-g.gate:
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("gate never opened: writeRows drained the operator before shipping the first batch")
		}
		g.sent++
		return g.batch(2), nil
	default:
		return nil, nil
	}
}

func (g *gateOp) batch(v int64) *storage.Batch {
	b := storage.NewBatch(g.schema)
	if err := b.AppendRow(storage.Int64(v)); err != nil {
		panic(err)
	}
	return b
}

// pipeSession returns a session writing to one end of an in-memory
// pipe and a reader for the other end.
func pipeSession(t *testing.T) (*session, *bufio.Reader, net.Conn) {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
	es := engine.New().NewSession()
	t.Cleanup(func() { es.Close() })
	ss := &session{conn: serverEnd, bw: bufio.NewWriter(serverEnd), es: es}
	return ss, bufio.NewReader(clientEnd), clientEnd
}

// readFrameTimeout reads one frame or fails the test after the
// deadline (net.Pipe blocks forever otherwise).
func readFrameTimeout(t *testing.T, conn net.Conn, br *bufio.Reader) (byte, []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return typ, payload
}

// TestWriteRowsStreamsBeforeCompletion asserts the first RowsBatch
// frame ships before the executor has finished producing the result:
// the operator's second batch is gated on the client having received
// the first one.
func TestWriteRowsStreamsBeforeCompletion(t *testing.T) {
	op := &gateOp{
		schema: storage.NewSchema(storage.Col("x", storage.TypeInt64)),
		gate:   make(chan struct{}),
	}
	rows, err := engine.OperatorRows(op)
	if err != nil {
		t.Fatal(err)
	}
	ss, br, clientEnd := pipeSession(t)
	go ss.writeRows(7, rows, time.Now())

	typ, _ := readFrameTimeout(t, clientEnd, br)
	if typ != wire.FrameRowsHeader {
		t.Fatalf("first frame %#x, want RowsHeader", typ)
	}
	typ, payload := readFrameTimeout(t, clientEnd, br)
	if typ != wire.FrameRowsBatch {
		t.Fatalf("second frame %#x, want RowsBatch", typ)
	}
	// The first batch arrived while the operator still has output
	// pending: release it and expect the rest plus Done.
	close(op.gate)
	r := &wire.Reader{B: payload}
	if id := r.U32(); id != 7 {
		t.Fatalf("batch for statement %d, want 7", id)
	}
	typ, _ = readFrameTimeout(t, clientEnd, br)
	if typ != wire.FrameRowsBatch {
		t.Fatalf("third frame %#x, want RowsBatch", typ)
	}
	typ, _ = readFrameTimeout(t, clientEnd, br)
	if typ != wire.FrameDone {
		t.Fatalf("final frame %#x, want Done", typ)
	}
}

// badColumn satisfies storage.Column but is not a concrete column type
// the wire encoder knows, forcing wire.AppendBatch to fail mid-stream.
type badColumn struct{}

func (badColumn) Type() storage.Type                { return storage.TypeInt64 }
func (badColumn) Len() int                          { return 1 }
func (badColumn) IsNull(int) bool                   { return false }
func (badColumn) Value(int) storage.Value           { return storage.Int64(1) }
func (badColumn) Append(storage.Value) error        { return nil }
func (badColumn) AppendNull()                       {}
func (badColumn) Slice(from, to int) storage.Column { return badColumn{} }
func (badColumn) Gather(idx []int) storage.Column   { return badColumn{} }

// TestMidStreamEncodeErrorTerminatesStatement asserts the error
// protocol: when the encoder fails after the header shipped, the
// server sends FrameError and nothing else for that statement — no
// Done follows an Error.
func TestMidStreamEncodeErrorTerminatesStatement(t *testing.T) {
	batch := &storage.Batch{
		Schema: storage.NewSchema(storage.Col("x", storage.TypeInt64)),
		Cols:   []storage.Column{badColumn{}},
	}
	ss, br, clientEnd := pipeSession(t)
	go func() {
		ss.writeRows(5, engine.MaterializedRows(batch), time.Now())
		// Sentinel after writeRows returns: if the protocol were
		// violated, a Done for statement 5 would precede this.
		ss.writeDone(99, nil)
	}()

	typ, _ := readFrameTimeout(t, clientEnd, br)
	if typ != wire.FrameRowsHeader {
		t.Fatalf("first frame %#x, want RowsHeader", typ)
	}
	typ, payload := readFrameTimeout(t, clientEnd, br)
	if typ != wire.FrameError {
		t.Fatalf("second frame %#x, want Error (encoder failed)", typ)
	}
	r := &wire.Reader{B: payload}
	if id := r.U32(); id != 5 {
		t.Fatalf("error for statement %d, want 5", id)
	}
	if msg := r.String(); msg == "" {
		t.Fatal("error frame carries no message")
	}
	// The next frame must be the sentinel, not a Done for statement 5.
	typ, payload = readFrameTimeout(t, clientEnd, br)
	r = &wire.Reader{B: payload}
	if typ != wire.FrameDone || r.U32() != 99 {
		t.Fatalf("statement 5 was followed by frame %#x/%d; Error must be terminal", typ, r.U32())
	}
}

// TestStalledClientReleasesReadLatch locks in the availability
// contract of streaming results. Historically a stalled client held
// the engine's read latch until the per-frame write deadline fired;
// under MVCC it holds only a snapshot pin and writers proceed at once
// (TestStalledClientNoLongerBlocksWriters asserts that directly).
// WriteTimeout still matters: it reaps the dead connection so the
// pinned snapshot and session slot are reclaimed.
func TestStalledClientReleasesReadLatch(t *testing.T) {
	eng := vertexica.New()
	if _, err := eng.DB().Exec("CREATE TABLE big (id INTEGER NOT NULL, w DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tb, err := eng.DB().Catalog().Get("big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_000_000; i++ {
		if err := tb.AppendRow(storage.Int64(int64(i)), storage.Float64(float64(i)*0.7)); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServer(t, eng, Config{WriteTimeout: 300 * time.Millisecond})

	// Raw client: handshake, issue a big streaming SELECT, read only
	// the header, then stop draining the socket.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello wire.Buffer
	hello.PutUvarint(wire.ProtocolVersion)
	hello.PutString("stalled-test-client")
	if err := wire.WriteFrame(conn, wire.FrameHello, hello.B); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.FrameHelloOK {
		t.Fatalf("handshake: %#x %v", typ, err)
	}
	var q wire.Buffer
	q.PutU32(1)
	q.PutString("SELECT id, w FROM big")
	if err := wire.WriteFrame(conn, wire.FrameQuery, q.B); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.FrameRowsHeader {
		t.Fatalf("header: %#x %v", typ, err)
	}
	// Stall: stop reading. The server fills the socket buffers, blocks
	// in a frame write holding the read latch, and must unwind at the
	// write deadline.

	// A writer on a second connection must get through well within the
	// deadline-plus-slack window.
	c2 := dialT(t, addr)
	defer c2.Close()
	wctx, wcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer wcancel()
	start := time.Now()
	if _, err := c2.Exec(wctx, "INSERT INTO big VALUES (1000001, 1.0)"); err != nil {
		t.Fatalf("write blocked behind a stalled streaming client: %v", err)
	}
	t.Logf("write completed %v after the stall began", time.Since(start))
}
