package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	vertexica "repro"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
)

const (
	loadRowsPerInsert = 1000
	insertKeyBase     = 1 << 20 // inserted keys start above every generated key
	insertedType      = "friend"
	insertedWeight    = 1.5
	insertedTime      = 1230768000
	updateTimeBase    = 2000000000 // UPDATEs set created to values no generated row has
	ackedReadEvery    = 8          // every n-th mixed lookup reads the newest acknowledged insert
	traceTail         = 100        // statements per connection and phase whose spans are kept
)

// served is an in-process network server over one engine.
type served struct {
	srv  *server.Server
	done chan error
}

func serve(cfg *config, eng *vertexica.Engine) (*served, error) {
	srv := server.New(eng, server.Config{WorkerBudget: cfg.pin})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s := &served{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	return s, nil
}

// shutdown drains the server and waits for its accept loop to end.
func (s *served) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, server.ErrServerClosed) {
		err = serr
	}
	return err
}

// serveWorkload drives the engine over loopback with prepared
// statements on cfg.pin connections.
//
// serve_read (in-memory engine): op1 = point lookup on the shard key,
// op2 = one-hop join to the node table, op3 = whole-table stream drain.
//
// serve_mixed (durable engine, WAL fsync on, default flush policy):
// connection 0 alternates single-row INSERTs of new keys (op2) with
// shard-key UPDATEs of generated keys (op3), auto-commit, while the
// other connection runs point lookups (op1) against the table being
// written; at the end the engine is checkpointed, closed and reopened,
// and every acknowledged write must be there.
type serveWorkload struct {
	base
	mixed bool

	rows           []dataset.Edge
	deg            []int32
	sumSrc, sumDst int64

	dir string
	eng *vertexica.Engine
	sv  *served

	conns  []*client.Conn
	point  []*client.Stmt
	onehop []*client.Stmt
	ins    *client.Stmt
	upd    *client.Stmt
	rngs   []*rand.Rand

	// The model of the writes acknowledged so far (mixed only).
	inserted  int64
	updates   int64
	newTime   map[int64]int64 // generated key → created value of its last UPDATE
	lastAcked atomic.Int64    // newest acknowledged inserted key, 0 = none

	// WAL accounting of the measured writes (mixed, traced pass).
	walFsyncs0 float64
}

func newServeWorkload(mixed bool) func(*config, *recorder) workload {
	return func(cfg *config, rec *recorder) workload {
		return &serveWorkload{base: newBase(cfg, rec), mixed: mixed, newTime: map[int64]int64{}}
	}
}

// each runs fn once per connection, in parallel, and waits.
func (w *serveWorkload) each(fn func(c int) error) error {
	errs := make([]error, len(w.conns))
	var wg sync.WaitGroup
	for c := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *serveWorkload) setup(ctx context.Context) error {
	sz := w.cfg.size
	t0 := time.Now()
	w.rows = dataset.ErdosRenyi(graphName, sz.nodes, sz.serveRows, w.cfg.seed).Edges
	w.setupT["generate"] = time.Since(t0)
	var err error
	w.deg = outDegrees(sz.nodes, w.rows)
	for _, e := range w.rows {
		w.sumSrc += e.Src
		w.sumDst += e.Dst
	}
	if w.mixed {
		if w.dir, err = scratchDir(w.cfg, "serve_mixed"); err != nil {
			return err
		}
	}
	if w.eng, err = newEngine(w.cfg, w.dir); err != nil {
		return err
	}
	if w.sv, err = serve(w.cfg, w.eng); err != nil {
		return err
	}
	for c := 0; c < w.cfg.pin; c++ {
		conn, err := client.Dial(w.sv.srv.Addr())
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
		w.rngs = append(w.rngs, rand.New(rand.NewSource(w.cfg.seed*1000+int64(c))))
	}
	if err = w.load(ctx); err != nil {
		return err
	}
	if w.mixed {
		// The WAL now holds the load as statement text; checkpoint so it
		// holds only the measured writes and a restart reads a snapshot.
		if err = w.eng.Checkpoint(); err != nil {
			return err
		}
		w.walFsyncs0 = registry(w.eng)["wal.fsyncs"]
	}
	return w.prepareAndWarm(ctx)
}

// load creates both tables and fills them with multi-row INSERTs over
// the wire.
func (w *serveWorkload) load(ctx context.Context) error {
	c := w.conns[0]
	if _, err := c.Exec(ctx, fmt.Sprintf(createEdgeSQL, edgeTable, tableShards)); err != nil {
		return err
	}
	if _, err := c.Exec(ctx, createNodeSQL); err != nil {
		return err
	}
	for from := 0; from < len(w.rows); from += loadRowsPerInsert {
		to := min(from+loadRowsPerInsert, len(w.rows))
		if _, err := c.Exec(ctx, insertSQL(edgeTable, w.rows[from:to])); err != nil {
			return err
		}
	}
	for from := int64(0); from < w.cfg.size.nodes; from += loadRowsPerInsert {
		to := min(from+loadRowsPerInsert, w.cfg.size.nodes)
		if _, err := c.Exec(ctx, insertNodesSQL(from, to)); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) prepareAndWarm(ctx context.Context) error {
	w.point = make([]*client.Stmt, len(w.conns))
	w.onehop = make([]*client.Stmt, len(w.conns))
	err := w.each(func(c int) error {
		var err error
		if w.point[c], err = w.conns[c].Prepare(ctx, pointSQL); err != nil {
			return err
		}
		if w.onehop[c], err = w.conns[c].Prepare(ctx, onehopSQL); err != nil {
			return err
		}
		if _, err = w.point[c].Query(ctx, storage.Int64(0)); err != nil {
			return err
		}
		_, err = w.onehop[c].Query(ctx, storage.Int64(0))
		return err
	})
	if err != nil {
		return err
	}
	if !w.mixed {
		_, err = w.drain(ctx)
		return err
	}
	c := w.conns[0]
	if w.ins, err = c.Prepare(ctx, insertText); err != nil {
		return err
	}
	if w.upd, err = c.Prepare(ctx, updateText); err != nil {
		return err
	}
	if _, err = w.insert(ctx); err != nil {
		return err
	}
	_, err = w.update(ctx, 0)
	return err
}

// --- operations ---

// link is what ties a finished statement to the engine's trace of it: the
// trace id a result carries, or a write statement's logged text.
type link struct {
	traceID uint64
	stmt    string
}

// traced runs fn as one operation; when sampled it leaves a root span
// and a pending link to the engine's trace of the same statement.
func (w *serveWorkload) traced(sampled bool, name string, pend *[]pendingTrace, fn func() (link, error)) (time.Duration, error) {
	if w.rec == nil || !sampled {
		t0 := time.Now()
		_, err := fn()
		return time.Since(t0), err
	}
	op, start := w.rec.op(), w.rec.now()
	t0 := time.Now()
	l, err := fn()
	d := time.Since(t0)
	root := w.rec.add(op, 0, "client."+name, start, start+int64(d))
	*pend = append(*pend, pendingTrace{op: op, root: root, start: start, traceID: l.traceID, stmt: l.stmt})
	return d, err
}

// lookup runs a prepared one-parameter SELECT and checks its row count.
func (w *serveWorkload) lookup(ctx context.Context, st *client.Stmt, key int64, want int) (link, error) {
	rows, err := st.Query(ctx, storage.Int64(key))
	if err != nil {
		return link{}, err
	}
	if rows.Len() != want {
		err = fmt.Errorf("lookup src=%d: %d rows, want %d", key, rows.Len(), want)
	}
	return link{traceID: rows.TraceID()}, err
}

// lookups is one connection's share of a lookup phase.
func (w *serveWorkload) lookups(ctx context.Context, c, slot int, name string, stmts []*client.Stmt, n int) []pendingTrace {
	var pend []pendingTrace
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		key := w.rngs[c].Int63n(w.cfg.size.nodes)
		d, err := w.traced(i >= n-traceTail, name, &pend, func() (link, error) {
			return w.lookup(ctx, stmts[c], key, int(w.deg[key]))
		})
		if err != nil {
			w.wrong(err)
		}
		lat = append(lat, d)
	}
	w.observeAll(slot, lat)
	return pend
}

// drain streams the whole table to the client and checks what arrived.
func (w *serveWorkload) drain(ctx context.Context) (link, error) {
	rows, err := w.conns[0].QueryStream(ctx, streamSQL)
	if err != nil {
		return link{}, err
	}
	var n int
	var sumSrc, sumDst int64
	for {
		b, err := rows.Next()
		if err != nil {
			return link{}, err
		}
		if b == nil {
			break
		}
		n += b.Len()
		for _, v := range ints(b.Cols[0]) {
			sumSrc += v
		}
		for _, v := range ints(b.Cols[1]) {
			sumDst += v
		}
	}
	if n != len(w.rows) || sumSrc != w.sumSrc || sumDst != w.sumDst {
		err = fmt.Errorf("stream: %d rows with sums (%d, %d), want %d rows (%d, %d)", n, sumSrc, sumDst, len(w.rows), w.sumSrc, w.sumDst)
	}
	return link{traceID: rows.TraceID()}, err
}

const (
	insertText = "INSERT INTO " + edgeTable + " VALUES ($1, $2, $3, $4, $5)"
	updateText = "UPDATE " + edgeTable + " SET created = $2 WHERE src = $1"
)

// logged renders a write statement the way the engine logs and traces
// it, in the traced pass only.
func (w *serveWorkload) logged(text string, args []storage.Value) link {
	if w.rec == nil {
		return link{}
	}
	stmt, _ := sql.SubstituteParams(text, args) // no link is the only consequence of an error
	return link{stmt: stmt}
}

// insert adds one row under a key no generated row has.
func (w *serveWorkload) insert(ctx context.Context) (link, error) {
	key := insertKeyBase + w.inserted
	args := []storage.Value{storage.Int64(key), storage.Int64(w.inserted % w.cfg.size.nodes),
		storage.Float64(insertedWeight), storage.Str(insertedType), storage.Int64(insertedTime + w.inserted)}
	l := w.logged(insertText, args)
	n, err := w.ins.Exec(ctx, args...)
	if err != nil {
		return l, err
	}
	w.inserted++
	w.lastAcked.Store(key)
	if n != 1 {
		err = fmt.Errorf("insert src=%d: %d rows affected, want 1", key, n)
	}
	return l, err
}

// update rewrites created on every row of one generated key.
func (w *serveWorkload) update(ctx context.Context, key int64) (link, error) {
	val := updateTimeBase + w.updates
	args := []storage.Value{storage.Int64(key), storage.Int64(val)}
	l := w.logged(updateText, args)
	n, err := w.upd.Exec(ctx, args...)
	if err != nil {
		return l, err
	}
	w.updates++
	w.newTime[key] = val
	if n != int(w.deg[key]) {
		err = fmt.Errorf("update src=%d: %d rows affected, want %d", key, n, w.deg[key])
	}
	return l, err
}

// --- rounds ---

func (w *serveWorkload) round(ctx context.Context) error {
	if w.mixed {
		return w.mixedRound(ctx)
	}
	return w.readRound(ctx)
}

// readRound is phases A, B and C, one after the other.
func (w *serveWorkload) readRound(ctx context.Context) error {
	sz := w.cfg.size
	for _, ph := range []struct {
		slot  int
		name  string
		stmts []*client.Stmt
		n     int
	}{{0, "point", w.point, sz.pointsPerConn}, {1, "onehop", w.onehop, sz.hopsPerConn}} {
		pends := make([][]pendingTrace, len(w.conns))
		t0 := time.Now()
		w.each(func(c int) error {
			pends[c] = w.lookups(ctx, c, ph.slot, ph.name, ph.stmts, ph.n)
			return nil
		})
		w.phase(time.Since(t0))
		if err := w.attach(ctx, pends...); err != nil {
			return err
		}
	}
	var pend []pendingTrace
	t0 := time.Now()
	for i := 0; i < sz.streams; i++ {
		d, err := w.traced(true, "stream", &pend, func() (link, error) { return w.drain(ctx) })
		if err != nil {
			w.wrong(err)
		}
		w.observe(2, d)
	}
	w.phase(time.Since(t0))
	return w.attach(ctx, pend)
}

// mixedRound runs the writer's fixed share while the reader looks up
// keys until the writer is done.
func (w *serveWorkload) mixedRound(ctx context.Context) error {
	pairs := w.cfg.size.writePairs
	var writing, tail atomic.Bool
	writing.Store(true)
	var wpend, rpend []pendingTrace
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(1)
	go func() { // reader, on the last connection
		defer wg.Done()
		c := len(w.conns) - 1
		var lat []time.Duration
		for i := 0; writing.Load(); i++ {
			key, want := w.rngs[c].Int63n(w.cfg.size.nodes), 0
			if acked := w.lastAcked.Load(); i%ackedReadEvery == 0 && acked != 0 {
				key, want = acked, 1
			} else {
				want = int(w.deg[key])
			}
			d, err := w.traced(tail.Load(), "point", &rpend, func() (link, error) {
				return w.lookup(ctx, w.point[c], key, want)
			})
			if err != nil {
				w.wrong(err)
			}
			lat = append(lat, d)
		}
		w.observeAll(0, lat)
	}()
	ins := make([]time.Duration, 0, pairs)
	upd := make([]time.Duration, 0, pairs)
	for i := 0; i < pairs; i++ {
		if i >= pairs-traceTail/2 {
			tail.Store(true)
		}
		d, err := w.traced(tail.Load(), "insert", &wpend, func() (link, error) { return w.insert(ctx) })
		if err != nil {
			w.wrong(err)
		}
		ins = append(ins, d)
		key := w.rngs[0].Int63n(w.cfg.size.nodes)
		d, err = w.traced(tail.Load(), "update", &wpend, func() (link, error) { return w.update(ctx, key) })
		if err != nil {
			w.wrong(err)
		}
		upd = append(upd, d)
	}
	writing.Store(false)
	wg.Wait()
	w.phase(time.Since(t0))
	w.observeAll(1, ins)
	w.observeAll(2, upd)
	return w.attach(ctx, wpend, rpend)
}

// attach links the sampled statements of one phase to the engine's own
// spans.
func (w *serveWorkload) attach(ctx context.Context, pends ...[]pendingTrace) error {
	if w.rec == nil {
		return nil
	}
	var all []pendingTrace
	for _, p := range pends {
		all = append(all, p...)
	}
	return attachEngineSpans(w.rec, connQuery(ctx, w.conns[0]), all)
}

func connQuery(ctx context.Context, c *client.Conn) queryFunc {
	return func(q string) (*storage.Batch, error) {
		rows, err := c.Query(ctx, q)
		if err != nil {
			return nil, err
		}
		return rows.Data, nil
	}
}

// --- end of run ---

// finish, for serve_mixed, restarts the engine and checks that every
// acknowledged write survived: the row count and three column sums of
// the reopened table must equal the model's.
func (w *serveWorkload) finish(ctx context.Context) error {
	if !w.mixed {
		return nil
	}
	w.closeClients()
	writes := float64(w.inserted + w.updates)
	w.layer["engine.wal_fsyncs_per_commit"] = ratio(registry(w.eng)["wal.fsyncs"]-w.walFsyncs0, writes)
	if fi, err := os.Stat(filepath.Join(w.dir, "wal.sql")); err == nil {
		w.layer["engine.wal_bytes_per_commit"] = ratio(float64(fi.Size()), writes)
		w.layer["engine.wal_bytes_per_user_byte"] = ratio(float64(fi.Size()),
			float64(w.inserted*insertUserBytes+w.updates*updateUserBytes))
	}
	rows := int64(len(w.rows)) + w.inserted
	var err error
	if w.eng, err = restart(w.cfg, w.eng, w.dir, rows, w.layer); err != nil {
		return err
	}

	want := [4]int64{rows, w.sumSrc, w.sumDst, 0}
	for i := int64(0); i < w.inserted; i++ {
		want[1] += insertKeyBase + i
		want[2] += i % w.cfg.size.nodes
		want[3] += insertedTime + i
	}
	for _, e := range w.rows {
		if t, ok := w.newTime[e.Src]; ok {
			want[3] += t
		} else {
			want[3] += e.Created
		}
	}
	w.attempted.Add(1)
	for i, q := range []string{"COUNT(*)", "SUM(src)", "SUM(dst)", "SUM(created)"} {
		got, err := scalarInt(ctx, w.eng, "SELECT "+q+" FROM "+edgeTable)
		if err == nil && got != want[i] {
			err = fmt.Errorf("after restart %s = %d, want %d", q, got, want[i])
		}
		if err != nil {
			w.wrong(err)
			break
		}
	}
	return nil
}

func (w *serveWorkload) fixture() *fixture {
	return &fixture{eng: w.eng, dir: w.dir, nodes: w.cfg.size.nodes}
}

// Bytes of user data per write: an inserted row's five values, an
// UPDATE's key and new value.
const (
	insertUserBytes = 8 + 8 + 8 + int64(len(insertedType)) + 8
	updateUserBytes = 8 + 8
)

func (w *serveWorkload) closeClients() {
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	if w.sv != nil {
		w.sv.shutdown()
		w.sv = nil
	}
}

func (w *serveWorkload) close() {
	w.closeClients()
	if w.eng != nil {
		w.eng.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
