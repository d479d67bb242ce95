// Package engine is the embedded relational database Vertexica runs
// on: a catalog of columnar tables, a SQL interface (parser → planner →
// vectorized executor), scalar UDF registration, statement-level
// transactions with rollback, and snapshot + write-ahead-log
// persistence. It plays the role Vertica plays in the paper.
package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// DB is an embedded relational database instance.
//
// Concurrency model (snapshot isolation): a read statement briefly
// takes mu.RLock to plan, pins an immutable MVCC snapshot of every
// table it reads (internal/mvcc; copy-on-write at the column level),
// then releases the latch and drains the snapshot latch-free — a slow
// or stalled reader never blocks a writer. Write statements, DDL and
// transaction control take mu.Lock and serialize; an open
// transaction's writes stay invisible to other sessions until COMMIT
// publishes the new table versions (readers resolve staged tables to
// their pre-commit snapshots). Cross-session write/transaction
// ordering is the write gate's job — see AcquireWriteGate — which
// Sessions hold for the duration of a transaction so concurrent
// writers do not interleave undo scopes (per-table write locks are the
// roadmap follow-up).
type DB struct {
	mu      sync.RWMutex // readers share; writes/txns serialize
	cat     *catalog.Catalog
	funcs   *expr.Registry
	planner *plan.Planner // planner.Parallelism is guarded by mu

	budget  *sched.Budget    // global worker budget (shared with the vertex runtime)
	memPool *sched.MemBudget // process-wide executor memory pool (0 = unlimited)
	mvcc    *mvcc.Manager    // version store: reader snapshots + txn pre-images

	// The write gate is a two-channel reader/writer lock over the
	// cross-session write path. Exclusive mode (transactions, DDL, any
	// statement outside the sharded fast path) drains every slot, so it
	// sees no concurrent writer at all — the historical serialized
	// behavior. Shared mode (the auto-commit sharded-DML fast path)
	// holds one slot; disjoint-shard writers proceed in parallel and
	// conflicts are resolved by the per-shard statement locks
	// (storage.ShardedTable.LockShards). Shared acquisition briefly
	// takes the exclusive token, giving a waiting exclusive acquirer
	// preference over new shared entrants.
	gateExcl  chan struct{} // capacity 1: exclusive token / shared entry ticket
	gateSlots chan struct{} // capacity gateSlotCount: shared-mode slots
	txn       *txnState     // non-nil while a transaction is open

	// embedded is the unregistered session the DB-level Query*/Exec*
	// family runs through: a DB-level BEGIN opens its transaction.
	embedded *Session

	dir string // persistence directory; "" = in-memory only
	wal *walWriter

	parseCache *parseCache // bound statements' parsed ASTs (self-locking)

	obs *obs.Registry // engine-wide metrics (self-locking; see Stats)

	tracer *trace.Tracer // statement-lifecycle tracer (self-locking)

	// Session registry (vx$sessions): every live Session's info row.
	sessMu   sync.Mutex
	sessSeq  uint64
	sessions map[uint64]*sessionInfo

	// graphRunner executes graph statements. The engine cannot import
	// the vertex runtime (the dependency points the other way), so the
	// facade that wires both installs it. Guarded by mu.
	graphRunner GraphRunner

	// Slow-query log: statements slower than slowThreshold are reported
	// to slowLog. Both fields are guarded by slowMu so the hot path pays
	// one uncontended mutex probe only when a threshold is set.
	slowMu        sync.Mutex
	slowThreshold time.Duration
	slowLog       func(SlowQuery)
}

// New returns an in-memory database.
func New() *DB {
	cat := catalog.New()
	funcs := expr.NewRegistry()
	db := &DB{
		cat:        cat,
		funcs:      funcs,
		planner:    plan.New(cat, funcs),
		budget:     sched.NewBudget(0),    // unlimited until SetWorkerBudget
		memPool:    sched.NewMemBudget(0), // unlimited until SetMemoryBudget
		mvcc:       mvcc.NewManager(cat),
		gateExcl:   make(chan struct{}, 1),
		gateSlots:  make(chan struct{}, gateSlotCount),
		parseCache: newParseCache(preparedCacheSize),
		tracer:     trace.New(),
		sessions:   make(map[uint64]*sessionInfo),
	}
	db.embedded = &Session{db: db, info: &sessionInfo{}}
	db.gateExcl <- struct{}{}
	for i := 0; i < gateSlotCount; i++ {
		db.gateSlots <- struct{}{}
	}
	db.planner.Parallelism = runtime.NumCPU()
	db.planner.Budget = db.budget
	db.planner.Mem = db.memPool
	// VXDB_WORK_MEM seeds the default per-statement memory grant, in
	// bytes (0 or unset = unlimited). CI runs the suite under a tiny
	// value to force every spill path.
	if v, err := strconv.ParseInt(os.Getenv("VXDB_WORK_MEM"), 10, 64); err == nil && v > 0 {
		db.planner.WorkMem = v
	}
	// VXDB_SPILL_DIR points spill files at a managed directory (the env
	// form of SET temp_tablespace). The spill filesystem is process-wide,
	// so the last engine to set it wins — in practice there is one.
	if d := os.Getenv("VXDB_SPILL_DIR"); d != "" {
		_ = storage.SetSpillDir(d)
	}
	db.obs = obs.New()
	db.tracer.Started = db.obs.Counter("trace.started")
	db.tracer.Retained = db.obs.Counter("trace.retained")
	db.tracer.Dropped = db.obs.Counter("trace.dropped_spans")
	db.registerGauges()
	return db
}

// registerGauges wires the pull-style gauges: subsystems that already
// keep their own thread-safe counters (MVCC manager, parse cache, worker
// budget) are read on demand at Snapshot time instead of double-counting
// into the registry.
func (db *DB) registerGauges() {
	r, m, b, p := db.obs, db.mvcc, db.budget, db.parseCache
	r.Gauge("mvcc.epoch", func() int64 { return int64(m.Epoch()) })
	r.Gauge("mvcc.live_readers", func() int64 { return int64(m.LiveReaders()) })
	r.Gauge("mvcc.peak_readers", func() int64 { return int64(m.PeakReaders()) })
	r.Gauge("mvcc.snapshot_age_epochs", func() int64 {
		oldest, ok := m.OldestPinnedEpoch()
		if !ok {
			return 0
		}
		return int64(m.Epoch() - oldest)
	})
	r.Gauge("sched.budget_capacity", func() int64 { return int64(b.Capacity()) })
	r.Gauge("sched.budget_in_use", func() int64 { return int64(b.InUse()) })
	r.Gauge("sched.budget_high_water", func() int64 { return int64(b.HighWater()) })
	r.Gauge("sched.budget_waits", func() int64 { return int64(b.Waits()) })
	mp := db.memPool
	r.Gauge("mem.pool_capacity", func() int64 { return mp.Capacity() })
	r.Gauge("mem.pool_in_use", func() int64 { return mp.InUse() })
	r.Gauge("mem.pool_high_water", func() int64 { return mp.HighWater() })
	r.Gauge("mem.pool_denials", func() int64 { return int64(mp.Denials()) })
	r.Gauge("spill.runs", func() int64 { n, _ := storage.SpillTotals(); return n })
	r.Gauge("spill.bytes", func() int64 { _, b := storage.SpillTotals(); return b })
	r.Gauge("spill.dir_bytes", storage.SpillDirBytes)
	r.Gauge("spill.disk_cap", storage.SpillDiskCap)
	tr := db.tracer
	r.Gauge("trace.ring_len", func() int64 { return int64(tr.RingLen()) })
	r.Gauge("trace.active_statements", func() int64 { return int64(tr.ActiveLen()) })
	r.Gauge("trace.sampling", tr.Sampling)
	r.Gauge("plancache.parses", func() int64 { return int64(p.parses.Load()) })
	r.Gauge("plancache.hits", func() int64 { return int64(p.hits.Load()) })
	r.Gauge("plancache.misses", func() int64 { return int64(p.misses.Load()) })
}

// Stats exposes the engine-wide metrics registry: statement counters,
// fast-path admission, WAL group-commit behavior, MVCC reader gauges,
// worker-budget pressure, and parse-cache effectiveness. SHOW STATS and
// the server's debug endpoint render its Snapshot.
func (db *DB) Stats() *obs.Registry { return db.obs }

// GraphRunner executes one graph statement for a session: a plain run
// (explain and analyze false) returns the result batch plus the run's
// named statistics; explain returns the plan rendering as a one-column
// batch, and with analyze it runs the statement and folds the real run
// statistics in. workers is the session's effective per-statement
// worker count. A run takes the cross-session write gate itself
// (AcquireWriteGate + WithGateHeld), like a transaction; ctx carries
// the statement's timeout and trace collector.
type GraphRunner func(ctx context.Context, g *sql.GraphStmt, explain, analyze bool, workers int) (*storage.Batch, []obs.Stat, error)

// SetGraphRunner installs the graph-statement runner. The graph
// runtime's facade registers it once — the engine cannot depend on the
// vertex layer directly.
func (db *DB) SetGraphRunner(fn GraphRunner) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.graphRunner = fn
}

// SetParallelism sets how many worker goroutines one SQL statement may
// use (morsel-parallel scans and filters, parallel hash-join probes,
// partitioned aggregation). The default is runtime.NumCPU(); 1
// restores fully serial execution; n <= 0 resets to the default. Results are identical — row for row, byte for
// byte — at every setting.
func (db *DB) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.planner.Parallelism = n
}

// Parallelism returns the current per-statement worker budget.
func (db *DB) Parallelism() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.planner.Parallelism
}

// SetWorkerBudget caps the total number of extra worker goroutines the
// engine may run at once, across all concurrent SQL statements and
// vertex-centric runs. Every parallel construct keeps its calling
// goroutine for free and draws extras from this shared budget, so at
// budget n the process runs at most (concurrent statements + n)
// executor workers and a statement always makes progress — under load
// execution degrades toward serial instead of oversubscribing cores.
// n <= 0 removes the cap (the default).
func (db *DB) SetWorkerBudget(n int) { db.budget.Resize(n) }

// WorkerBudget exposes the shared budget (the vertex coordinator draws
// from it; benchmarks and tests read its gauges).
func (db *DB) WorkerBudget() *sched.Budget { return db.budget }

// SetMemoryBudget caps the total bytes the executor may hold in
// blocking operators (sorts, hash tables, aggregate state)
// across all concurrent statements. Operators that would exceed it
// spill to disk and produce byte-identical results; operators with no
// spill path fail cleanly with an out-of-memory-budget error. n <= 0
// removes the cap (the default).
func (db *DB) SetMemoryBudget(n int64) { db.memPool.Resize(n) }

// MemoryBudget exposes the executor memory pool (capacity, in-use and
// high-water gauges, denial counts).
func (db *DB) MemoryBudget() *sched.MemBudget { return db.memPool }

// SetWorkMem sets the default per-statement memory grant in bytes:
// each statement's blocking operators share at most this much memory
// before spilling (and never more than the pool has free). n <= 0
// means unlimited. Sessions override it with SET work_mem.
func (db *DB) SetWorkMem(n int64) {
	if n < 0 {
		n = 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.planner.WorkMem = n
}

// WorkMem returns the default per-statement memory grant (0 =
// unlimited).
func (db *DB) WorkMem() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.planner.WorkMem
}

// LockShared takes the statement latch in shared (reader) mode.
// Subsystems that read storage tables directly — bypassing both the
// SQL statement path and snapshot pinning, like the graph layer's
// small metadata reads — hold it briefly so no write statement
// mutates a table mid-read; bulk direct reads should pin a snapshot
// via AcquireSnapshot instead. Do not call Query/Exec while holding
// it.
func (db *DB) LockShared() { db.mu.RLock() }

// UnlockShared releases LockShared.
func (db *DB) UnlockShared() { db.mu.RUnlock() }

// LockExclusive takes the statement latch in exclusive (writer) mode,
// blocking all SQL statements; the vertex coordinator holds it while
// writing vertex/message tables back. Do not call Query/Exec while
// holding it.
func (db *DB) LockExclusive() { db.mu.Lock() }

// UnlockExclusive releases LockExclusive.
func (db *DB) UnlockExclusive() { db.mu.Unlock() }

// gateSlotCount bounds how many shared-mode (fast path) writers run at
// once; an exclusive acquirer drains all of them. 64 comfortably
// exceeds any realistic session count while keeping the drain cheap.
const gateSlotCount = 64

// AcquireWriteGate claims the cross-session write gate in exclusive
// mode, blocking while another session holds it exclusively (an open
// transaction or a serialized write) and draining every shared-mode
// slot, so no fast-path writer is in flight once it returns. Sessions
// hold it for a single serialized auto-commit write statement or from
// BEGIN to COMMIT/ROLLBACK, which keeps concurrent writers out of each
// other's undo scopes.
func (db *DB) AcquireWriteGate(ctx context.Context) error {
	select {
	case <-db.gateExcl:
	case <-ctx.Done():
		return ctx.Err()
	}
	for i := 0; i < gateSlotCount; i++ {
		select {
		case <-db.gateSlots:
		case <-ctx.Done():
			// Undo: return the slots taken so far, then the token.
			for ; i > 0; i-- {
				db.gateSlots <- struct{}{}
			}
			db.gateExcl <- struct{}{}
			return ctx.Err()
		}
	}
	return nil
}

// ReleaseWriteGate returns the exclusive gate taken by
// AcquireWriteGate.
func (db *DB) ReleaseWriteGate() {
	for i := 0; i < gateSlotCount; i++ {
		db.gateSlots <- struct{}{}
	}
	db.gateExcl <- struct{}{}
}

// acquireSharedGate claims one shared-mode slot of the write gate (the
// sharded fast path's admission). It briefly holds the exclusive token
// while taking the slot so a waiting exclusive acquirer is not starved
// by a stream of new shared entrants.
func (db *DB) acquireSharedGate(ctx context.Context) error {
	select {
	case <-db.gateExcl:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-db.gateSlots:
	case <-ctx.Done():
		db.gateExcl <- struct{}{}
		return ctx.Err()
	}
	db.gateExcl <- struct{}{}
	return nil
}

// releaseSharedGate returns the slot taken by acquireSharedGate.
func (db *DB) releaseSharedGate() { db.gateSlots <- struct{}{} }

// gateKey marks a context whose caller chain already holds the write
// gate, so nested write statements (a graph driver's scratch-table
// DDL, say) must not re-acquire it — the gate is not reentrant.
type gateKey struct{}

// WithGateHeld marks ctx as running under an already-acquired write
// gate. The facade's graph-algorithm wrappers use it: they take the
// gate once for a whole multi-statement run and every write statement
// issued under that ctx skips the per-statement acquisition.
func WithGateHeld(ctx context.Context) context.Context {
	return context.WithValue(ctx, gateKey{}, true)
}

// GateHeld reports whether ctx carries the WithGateHeld marker.
func GateHeld(ctx context.Context) bool {
	held, _ := ctx.Value(gateKey{}).(bool)
	return held
}

// MVCC exposes the version-store manager (reader gauges, tests, the
// mixed-workload benchmark).
func (db *DB) MVCC() *mvcc.Manager { return db.mvcc }

// AcquireSnapshot pins a consistent committed snapshot of the named
// tables and seals it: the caller reads the returned handle's tables
// with no engine latch held, and must Release it when done. Subsystems
// that read storage directly — the vertex coordinator's input
// assembly — use it where they used to hold LockShared for the whole
// read.
func (db *DB) AcquireSnapshot(names ...string) (*mvcc.Snapshot, error) {
	db.mu.RLock()
	snap, err := db.mvcc.Acquire(names...)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	snap.Seal()
	return snap, nil
}

// Catalog exposes the table namespace (used by the vertex runtime).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Funcs exposes the scalar-function registry (the UDF hook).
func (db *DB) Funcs() *expr.Registry { return db.funcs }

// RegisterUDF registers a scalar user-defined function usable from SQL.
func (db *DB) RegisterUDF(f *expr.ScalarFunc) error { return db.funcs.Register(f) }

// Rows is a query result: an iterator over result batches. Streaming
// rows (from QueryStream / Session.RunStream) yield batches as the
// executor produces them and hold the statement's MVCC snapshot pin
// plus the open operator tree until the stream finishes — call Close
// (or drain to nil) when done; an unfinished stream wastes the pinned
// versions' memory but blocks no writer. Materialized rows (from
// Query / Session.Run, or MaterializedRows) hold everything in memory
// and keep the historical random-access API: Len, Row, Value.
//
// Materialize drains whatever remains of the stream into one batch —
// the shim existing batch-at-once callers use. Do not mix Next with
// the random-access methods on the same Rows.
type Rows struct {
	schema  storage.Schema
	op      exec.Operator // non-nil while streaming
	root    exec.Operator // the stream's operator tree; survives finish (slow-query log)
	emitted int64         // rows yielded by the stream so far
	cleanup []func()      // run once, in reverse, when the stream finishes
	err     error

	data *storage.Batch // result batch once materialized
	pos  int            // Next cursor over data

	// Stats are named statistics the statement reports alongside its
	// rows (a graph statement's run statistics); the wire server ships
	// them in the Done-frame trailer.
	Stats []obs.Stat
}

// MaterializedRows wraps a finished batch as a result (session
// variables, graph verbs, tests).
func MaterializedRows(b *storage.Batch) *Rows {
	return &Rows{schema: b.Schema, data: b}
}

// OperatorRows streams an operator's output as a result: the operator
// is opened immediately and closed (with any extra cleanup functions,
// last-added-first) when the stream ends. Subsystems that feed
// operator output straight to a consumer — the wire server, tests —
// use it; SQL callers go through QueryStream.
func OperatorRows(op exec.Operator, cleanup ...func()) (*Rows, error) {
	r := &Rows{schema: op.Schema(), op: op, root: op, cleanup: cleanup}
	r.cleanup = append(r.cleanup, func() { op.Close() })
	if err := op.Open(); err != nil {
		r.finish()
		return nil, err
	}
	return r, nil
}

// Schema returns the result schema (available before the first batch).
func (r *Rows) Schema() storage.Schema { return r.schema }

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.schema.Names() }

// Next returns the next result batch, or nil at end of stream. On a
// streaming result the executor produces the batch on demand; the
// snapshot pin and operator tree are released when the stream ends
// (nil or error). On a materialized result the batch is a
// storage.BatchSize slice of the data.
func (r *Rows) Next() (*storage.Batch, error) {
	if r.op != nil {
		b, err := r.op.Next()
		if err != nil {
			r.err = err
			r.finish()
			return nil, err
		}
		if b == nil {
			r.finish()
			return nil, nil
		}
		r.emitted += int64(b.Len())
		return b, nil
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.data == nil {
		return nil, nil
	}
	return exec.NextChunk(r.data, &r.pos, r.data.Len()), nil
}

// Close releases a streaming result's snapshot pin and operators; it
// is a no-op once the stream has finished (or on materialized rows).
// It is safe to call multiple times.
func (r *Rows) Close() error {
	r.finish()
	return nil
}

// finish runs the cleanup chain exactly once, newest first.
func (r *Rows) finish() {
	r.op = nil
	runReverse(r.cleanup)
	r.cleanup = nil
}

func runReverse(fns []func()) {
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// Materialize drains the remaining stream into a single batch and
// returns it (releasing the snapshot pin), or returns the already-
// materialized batch. This is the shim for callers that want the
// whole result at once.
func (r *Rows) Materialize() (*storage.Batch, error) {
	if r.data != nil {
		return r.data, nil
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
			r.err = err
			r.finish()
			return nil, err
		}
	}
	r.data = out
	r.pos = 0 // data holds only unconsumed batches; Next serves them
	return out, nil
}

// mustData returns the materialized batch, materializing a stream on
// first use. The random-access accessors funnel through it; an
// iteration error surfaces as an empty result with Err set.
func (r *Rows) mustData() *storage.Batch {
	if r.data == nil {
		if _, err := r.Materialize(); err != nil {
			return storage.NewBatch(r.schema)
		}
	}
	return r.data
}

// Err returns the error that terminated the stream, if any.
func (r *Rows) Err() error { return r.err }

// Len returns the number of result rows (materializing a stream).
func (r *Rows) Len() int { return r.mustData().Len() }

// Row materializes row i.
func (r *Rows) Row(i int) []storage.Value { return r.mustData().Row(i) }

// Value returns the value at (row, col).
func (r *Rows) Value(row, col int) storage.Value { return r.mustData().Cols[col].Value(row) }

// Result reports the effect of a DML/DDL statement.
type Result struct {
	RowsAffected int
}

// Query parses, plans and executes a SELECT, returning materialized
// rows.
func (db *DB) Query(text string) (*Rows, error) {
	return db.QueryContext(context.Background(), text)
}

// QueryContext is Query with cancellation: ctx is checked before every
// result batch, so a cancelled context aborts mid-scan rather than
// after the statement completes. Reads pin snapshots, so any number of
// QueryContext calls run concurrently.
func (db *DB) QueryContext(ctx context.Context, text string) (*Rows, error) {
	rows, err := db.QueryStream(ctx, text)
	if err != nil {
		return nil, err
	}
	if _, err := rows.Materialize(); err != nil {
		return nil, err
	}
	return rows, nil
}

// QueryStream parses, plans and executes a SELECT, returning a
// streaming result: batches are produced on demand from the
// statement's pinned snapshot, with no engine latch held — a stalled
// consumer delays no writer, and the stream still yields exactly the
// version set it pinned at plan time. The caller must drain or Close
// the rows (that releases the snapshot pin). Like every DB-level call
// it runs through the DB's embedded session (see Session.run); any
// other statement kind is refused before it runs.
func (db *DB) QueryStream(ctx context.Context, text string) (*Rows, error) {
	p, err := db.embedded.parse(text, stmtArgs{})
	if err != nil {
		return nil, err
	}
	if _, ok := p.st.(*sql.SelectStmt); !ok {
		return nil, fmt.Errorf("engine: Query requires a SELECT; use Exec for %T", p.st)
	}
	rows, _, err := db.embedded.run(ctx, p)
	return rows, err
}

// planSelect is the one SELECT planning path: it pins an MVCC snapshot
// under the shared latch, plans the statement against it with its
// arguments already bound, and wraps the tree with the execution's
// context. Every execution plans fresh, so no plan state is shared
// between executions. The snapshot resolves staged (uncommitted)
// tables live only when reader owns the open transaction. On success
// the caller owns the returned release (the snapshot pin) and must run
// it when the statement finishes.
func (db *DB) planSelect(ctx context.Context, sel *sql.SelectStmt, args []storage.Value, workers int, workMem int64, reader *Session) (exec.Operator, func(), error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	acquire := db.mvcc.Acquire
	if db.txn != nil && db.txn.owner == reader {
		acquire = db.mvcc.AcquireOwn
	}
	snap, err := acquire()
	if err != nil {
		return nil, nil, err
	}
	endPlan := trace.FromContext(ctx).Begin("plan")
	planner := *db.planner // this statement's work_mem; mu guards the fields
	planner.WorkMem = workMem
	root, err := planner.PlanSelectParams(sel, workers, sysSource{db: db, base: snap}, plan.NewParams(args))
	endPlan(fmt.Sprintf("workers=%d", workers))
	if err != nil {
		snap.Release()
		return nil, nil, err
	}
	snap.Seal()
	return exec.WithContext(ctx, root), snap.Release, nil
}

// openSelect plans a SELECT (planSelect) and opens its operator tree,
// returning streaming rows that hold only the snapshot pin — released
// when the stream finishes.
func (db *DB) openSelect(ctx context.Context, sel *sql.SelectStmt, args []storage.Value, workers int, workMem int64, reader *Session) (*Rows, error) {
	root, release, err := db.planSelect(ctx, sel, args, workers, workMem, reader)
	if err != nil {
		return nil, err
	}
	tc := trace.FromContext(ctx)
	tc.Add("grant", time.Now(), 0, fmt.Sprintf("work_mem=%d pool %s", workMem, db.memPool.Describe()))
	// Open is where pipeline-breaking operators (sort, aggregate) do
	// their work — it gets its own lifecycle span so the trace covers
	// eager execution, not just the drain.
	endOpen := tc.Begin("open")
	rows, err := OperatorRows(root, release)
	if err != nil {
		endOpen("failed")
		return nil, err // OperatorRows already ran the cleanup chain
	}
	endOpen("operator tree opened")
	return rows, nil
}

// QueryScalar runs a query expected to produce exactly one value.
func (db *DB) QueryScalar(text string) (storage.Value, error) {
	return db.QueryScalarContext(context.Background(), text)
}

// QueryScalarContext is QueryScalar with cancellation.
func (db *DB) QueryScalarContext(ctx context.Context, text string) (storage.Value, error) {
	rows, err := db.QueryContext(ctx, text)
	if err != nil {
		return storage.Value{}, err
	}
	if rows.Len() != 1 || rows.schema.Len() != 1 {
		return storage.Value{}, fmt.Errorf("engine: scalar query returned %dx%d result", rows.Len(), rows.schema.Len())
	}
	return rows.Value(0, 0), nil
}

// Exec parses and executes a DML or DDL statement.
func (db *DB) Exec(text string) (Result, error) {
	return db.ExecContext(context.Background(), text)
}

// ExecContext is Exec with cancellation; for INSERT ... SELECT the
// context reaches the SELECT's executor. It runs through the DB's
// embedded session, so BEGIN / COMMIT / ROLLBACK manage that session's
// transaction: a DB-level BEGIN takes the cross-session write gate
// exactly like any session's BEGIN. SET/SHOW and graph statements are
// session-scoped and refused before they run; run them through a
// Session.
func (db *DB) ExecContext(ctx context.Context, text string) (Result, error) {
	p, err := db.embedded.parse(text, stmtArgs{})
	if err != nil {
		return Result{}, err
	}
	switch p.st.(type) {
	case *sql.SetStmt, *sql.ShowStmt, *sql.GraphStmt:
		return Result{}, fmt.Errorf("engine: %s is a session statement; run it through a Session", p.st)
	}
	_, res, err := materialize(db.embedded.run(ctx, p))
	return res, err
}

// admitWrite is the one write-admission sequence. s is the session the
// write runs for, or nil when the caller chain already holds the
// exclusive gate (a graph run's nested statements). A write of the
// session that owns the open transaction runs inside it. Any other
// eligible auto-commit DML takes the sharded fast path — shared gate +
// per-shard statement locks, so sessions writing disjoint shards commit
// in parallel — and everything else takes the exclusive gate for just
// this statement. Execution WAL-logs the statement on success. fast
// reports which route ran it. Lifecycle spans (gate, exec, wal) go to
// the collector on ctx, if any.
func (db *DB) admitWrite(ctx context.Context, st sql.Statement, text string, ps *plan.Params, s *Session) (res Result, fast bool, err error) {
	tc := trace.FromContext(ctx)
	if s != nil && s.ownsGate.Load() {
		// On the DB's embedded session the flag is only a hint: another
		// goroutine's DB-level transaction may end, and another
		// session's begin, before this write runs. execParsed confirms
		// the ownership under db.mu; a write whose transaction is gone
		// is admitted like any auto-commit write below, never run
		// inside someone else's transaction.
		endExec := tc.Begin("exec")
		res, err = db.execParsed(ctx, st, text, ps, s)
		if !errors.Is(err, errTxnNotOwned) {
			endExec(fmt.Sprintf("rows=%d", res.RowsAffected))
			return res, false, err
		}
		endExec("transaction ended before the write ran")
	}
	if s != nil {
		if res, handled, err := db.tryFastWrite(ctx, st, text, ps); handled {
			return res, true, err
		}
		endGate := tc.Begin("gate")
		if err := db.AcquireWriteGate(ctx); err != nil {
			endGate("not acquired: " + err.Error())
			return Result{}, false, err
		}
		endGate("exclusive write gate")
		defer db.ReleaseWriteGate()
	}
	endExec := tc.Begin("exec")
	res, err = db.execParsed(ctx, st, text, ps, nil)
	endExec(fmt.Sprintf("rows=%d", res.RowsAffected))
	return res, false, err
}

// errTxnNotOwned refuses a write whose session no longer owns the open
// transaction (see admitWrite).
var errTxnNotOwned = errors.New("engine: the session's transaction has ended")

// execParsed runs an already-parsed data statement under the exclusive
// latch and WAL-logs it on success. An auto-commit statement (no open
// transaction) publishes its table versions immediately; inside a
// transaction, publication waits for COMMIT. A non-nil owner must own
// the open transaction, checked under the latch, or the statement is
// refused with errTxnNotOwned before it runs. ps carries bound
// parameter values for a prepared execution (nil for plain text); text
// must then be the substituted rendering, since the WAL replays text
// without an argument stream.
func (db *DB) execParsed(ctx context.Context, st sql.Statement, text string, ps *plan.Params, owner *Session) (Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if owner != nil && (db.txn == nil || db.txn.owner != owner) {
		return Result{}, errTxnNotOwned
	}
	res, err := db.execLocked(ctx, st, ps)
	if err != nil {
		return Result{}, err
	}
	err = db.logStatement(ctx, text)
	if db.txn == nil {
		db.mvcc.Publish()
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// execLocked is the one statement executor behind both write routes.
// It runs under either latch mode: the shared latch for a fast-path
// INSERT/UPDATE/DELETE, the exclusive one for everything else. DDL
// runs only under the exclusive latch. Each DML statement stages its
// footprint's pre-images (inside a transaction), then takes the
// footprint's shard statement locks, which the exclusive latch leaves
// uncontended.
func (db *DB) execLocked(ctx context.Context, st sql.Statement, ps *plan.Params) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	switch s := st.(type) {
	case *sql.CreateTableStmt:
		return db.execCreate(s)
	case *sql.DropTableStmt:
		return db.execDrop(s)
	case *sql.TruncateStmt:
		return db.execTruncate(s)
	case *sql.InsertStmt:
		return db.execInsert(ctx, s, ps)
	case *sql.UpdateStmt:
		return db.execUpdate(s, ps)
	case *sql.DeleteStmt:
		return db.execDelete(s, ps)
	default:
		return Result{}, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

// DefaultShards is the shard count a PARTITION BY HASH table gets when
// the statement omits the SHARDS clause. It is a fixed constant — not
// NumCPU — so the same DDL produces the same physical layout (and the
// same row order) on every machine, which the differential tests and
// snapshot round-trips rely on.
const DefaultShards = 8

func (db *DB) execCreate(s *sql.CreateTableStmt) (Result, error) {
	if db.cat.Has(s.Name) {
		if s.IfNotExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("engine: table %q already exists", s.Name)
	}
	cols := make([]storage.ColumnDef, len(s.Cols))
	for i, c := range s.Cols {
		t, err := typeFromName(c.TypeName)
		if err != nil {
			return Result{}, err
		}
		cols[i] = storage.ColumnDef{Name: c.Name, Type: t, NotNull: c.NotNull}
	}
	schema := storage.NewSchema(cols...)
	keyCol, shards := -1, 1
	if s.PartitionBy != "" {
		keyCol = schema.IndexOf(s.PartitionBy)
		if keyCol < 0 {
			return Result{}, fmt.Errorf("engine: PARTITION BY column %q is not a column of %s", s.PartitionBy, s.Name)
		}
		shards = s.Shards
		if shards <= 0 {
			shards = DefaultShards
		}
	}
	if _, err := db.cat.CreateSharded(s.Name, schema, keyCol, shards); err != nil {
		return Result{}, err
	}
	db.noteCreate(s.Name)
	return Result{}, nil
}

func typeFromName(name string) (storage.Type, error) {
	switch strings.ToUpper(name) {
	case "INTEGER":
		return storage.TypeInt64, nil
	case "DOUBLE":
		return storage.TypeFloat64, nil
	case "VARCHAR":
		return storage.TypeString, nil
	case "BOOLEAN":
		return storage.TypeBool, nil
	}
	return 0, fmt.Errorf("engine: unknown type %q", name)
}

func (db *DB) execDrop(s *sql.DropTableStmt) (Result, error) {
	t, err := db.cat.Get(s.Name)
	if err != nil {
		if s.IfExists {
			return Result{}, nil
		}
		return Result{}, err
	}
	db.noteDrop(t)
	return Result{}, db.cat.Drop(s.Name)
}

func (db *DB) execTruncate(s *sql.TruncateStmt) (Result, error) {
	t, err := db.cat.Get(s.Name)
	if err != nil {
		return Result{}, err
	}
	n := t.NumRows()
	db.noteWrite(t, nil)
	t.Truncate()
	return Result{RowsAffected: n}, nil
}

func (db *DB) execInsert(ctx context.Context, s *sql.InsertStmt, ps *plan.Params) (Result, error) {
	t, err := db.cat.Get(s.Table)
	if err != nil {
		return Result{}, err
	}
	colIdx, input, err := db.buildInsertInput(ctx, s, t, ps)
	if err != nil {
		return Result{}, err
	}
	shards := insertShardSet(t, colIdx, input)
	db.noteWrite(t, shards)
	t.LockShards(shards)
	defer t.UnlockShards(shards)
	n, err := appendInsertRows(t, colIdx, input)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: n}, nil
}

// buildInsertInput maps the statement's column list to table positions
// and evaluates the source rows (VALUES expressions or the SELECT) into
// a batch whose columns line up with colIdx. It only reads, so it is
// safe under the shared latch.
func (db *DB) buildInsertInput(ctx context.Context, s *sql.InsertStmt, t *storage.Table, ps *plan.Params) (colIdx []int, input *storage.Batch, err error) {
	schema := t.Schema()
	// Map statement columns to table positions.
	if len(s.Columns) == 0 {
		colIdx = make([]int, schema.Len())
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		colIdx = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			j := schema.IndexOf(name)
			if j < 0 {
				return nil, nil, fmt.Errorf("engine: table %s has no column %q", s.Table, name)
			}
			colIdx[i] = j
		}
	}

	if s.Select != nil {
		op, err := db.planner.PlanSelectParams(s.Select, 0, nil, ps)
		if err != nil {
			return nil, nil, err
		}
		input, err = exec.Drain(exec.WithContext(ctx, op))
		if err != nil {
			return nil, nil, err
		}
	} else {
		defs := make([]storage.ColumnDef, len(colIdx))
		for i, j := range colIdx {
			defs[i] = storage.Col(fmt.Sprintf("c%d", i), schema.Cols[j].Type)
		}
		input = storage.NewBatch(storage.NewSchema(defs...))
		// VALUES rows are evaluated against an empty scope.
		emptyScope := &plan.Scope{}
		for _, astRow := range s.Rows {
			if len(astRow) != len(colIdx) {
				return nil, nil, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(astRow), len(colIdx))
			}
			vals := make([]storage.Value, len(astRow))
			for i, e := range astRow {
				bound, err := plan.BindExprParams(e, emptyScope, db.funcs, ps)
				if err != nil {
					return nil, nil, err
				}
				v, err := bound.Eval(expr.Row{})
				if err != nil {
					return nil, nil, err
				}
				vals[i] = v
			}
			if err := input.AppendRow(vals...); err != nil {
				return nil, nil, err
			}
		}
	}

	if len(input.Cols) != len(colIdx) {
		return nil, nil, fmt.Errorf("engine: INSERT source has %d columns, expected %d", len(input.Cols), len(colIdx))
	}
	return colIdx, input, nil
}

// appendInsertRows assembles the full-width batch from the evaluated
// input (unspecified columns become NULL) and appends it to the table,
// which validates every row before any shard changes and routes each
// row to its shard. Returns the row count.
func appendInsertRows(t *storage.Table, colIdx []int, input *storage.Batch) (int, error) {
	schema := t.Schema()
	n := input.Len()
	full := &storage.Batch{Schema: schema, Cols: make([]storage.Column, schema.Len())}
	for k, j := range colIdx {
		full.Cols[j] = input.Cols[k]
	}
	for j, c := range full.Cols {
		if c == nil {
			c = storage.NewColumn(schema.Cols[j].Type, n)
			for i := 0; i < n; i++ {
				c.AppendNull()
			}
			full.Cols[j] = c
		}
	}
	if err := t.AppendBatch(full); err != nil {
		return 0, err
	}
	return n, nil
}

// insertShardSet returns the shards the input rows route to: the
// statement's write footprint, locked for its duration.
func insertShardSet(t *storage.Table, colIdx []int, input *storage.Batch) []int {
	if t.NumShards() == 1 {
		return []int{0}
	}
	key := t.ShardKey()
	kpos := -1
	for k, j := range colIdx {
		if j == key {
			kpos = k
		}
	}
	seen := make(map[int]bool)
	var shards []int
	nullKey := storage.Null(t.Schema().Cols[key].Type)
	for i := 0; i < input.Len() && len(shards) < t.NumShards(); i++ {
		v := nullKey // key column unspecified: the row carries NULL
		if kpos >= 0 {
			v = input.Cols[kpos].Value(i)
		}
		sh, err := t.ShardOf(v)
		if err != nil {
			// Uncoercible key: AppendBatch rejects the whole batch;
			// lock shard 0 so the failure is serialized.
			sh = 0
		}
		if !seen[sh] {
			seen[sh] = true
			shards = append(shards, sh)
		}
	}
	if len(shards) == 0 {
		shards = []int{0} // zero rows: lock something so the path is uniform
	}
	return shards
}

// writeFootprint returns the shards an UPDATE or DELETE may touch: the
// one shard its WHERE pins by the planner's routing rule, else every
// shard. An UPDATE that moves rows (it writes the partition key) may
// land them in any shard, so its footprint is every shard.
func writeFootprint(t *storage.Table, sc *plan.Scope, where sql.Expr, ps *plan.Params, moves bool) []int {
	if sh, ok := plan.PinnedShard(t, sc, where, ps); ok && !moves {
		return []int{sh}
	}
	return t.AllShards()
}

// shardMatch is one shard's rows matched by a WHERE clause.
type shardMatch struct {
	shard int
	data  *storage.Batch    // the shard's contents when matched
	idx   []int             // shard-local indexes of the matched rows
	set   [][]storage.Value // UPDATE: per SET item, the new value of each matched row
}

// matchShards evaluates where over each footprint shard's rows (every
// row when where is nil) and returns the shards with a match. The
// caller holds the shards' statement locks from before the match until
// after the mutation, so the shard-local indexes stay valid.
func (db *DB) matchShards(t *storage.Table, sc *plan.Scope, shards []int, where sql.Expr, ps *plan.Params) ([]shardMatch, error) {
	var pred expr.Expr
	if where != nil {
		var err error
		if pred, err = plan.BindExprParams(where, sc, db.funcs, ps); err != nil {
			return nil, err
		}
		if pred.Type() != storage.TypeBool {
			return nil, fmt.Errorf("engine: WHERE must be boolean, got %s", pred.Type())
		}
	}
	var out []shardMatch
	for _, s := range shards {
		data := t.ShardBatch(s)
		var idx []int
		for i := 0; i < data.Len(); i++ {
			ok := true
			if pred != nil {
				var err error
				if ok, err = expr.EvalBool(pred, expr.Row{Batch: data, Idx: i}); err != nil {
					return nil, err
				}
			}
			if ok {
				idx = append(idx, i)
			}
		}
		if len(idx) > 0 {
			out = append(out, shardMatch{shard: s, data: data, idx: idx})
		}
	}
	return out, nil
}

// execUpdate matches the WHERE shard by shard, then evaluates,
// NOT NULL-checks and coerces every SET value on every matched shard
// before any shard changes, so a failing value leaves the table as it
// was. Rows are updated in place, unless the SET writes the partition
// key of a multi-shard table: then the updated rows move to the shards
// their new keys hash to, each landing at the end of its new shard.
func (db *DB) execUpdate(s *sql.UpdateStmt, ps *plan.Params) (Result, error) {
	t, err := db.cat.Get(s.Table)
	if err != nil {
		return Result{}, err
	}
	schema := t.Schema()
	sc := plan.NewScope(t.Name(), schema)
	cols := make([]int, len(s.Set))
	exprs := make([]expr.Expr, len(s.Set))
	moves := false
	for k, as := range s.Set {
		if cols[k] = schema.IndexOf(as.Column); cols[k] < 0 {
			return Result{}, fmt.Errorf("engine: table %s has no column %q", s.Table, as.Column)
		}
		if exprs[k], err = plan.BindExprParams(as.E, sc, db.funcs, ps); err != nil {
			return Result{}, err
		}
		moves = moves || (cols[k] == t.ShardKey() && t.NumShards() > 1)
	}
	shards := writeFootprint(t, sc, s.Where, ps, moves)
	db.noteWrite(t, shards)
	t.LockShards(shards)
	defer t.UnlockShards(shards)
	matches, err := db.matchShards(t, sc, shards, s.Where, ps)
	if err != nil {
		return Result{}, err
	}
	n := 0
	for m := range matches {
		mt := &matches[m]
		mt.set = make([][]storage.Value, len(exprs))
		for k, e := range exprs {
			def := schema.Cols[cols[k]]
			vals := make([]storage.Value, len(mt.idx))
			for r, i := range mt.idx {
				v, err := e.Eval(expr.Row{Batch: mt.data, Idx: i})
				if err != nil {
					return Result{}, err
				}
				if v.Null && def.NotNull {
					return Result{}, fmt.Errorf("engine: NOT NULL constraint violated on %s.%s", s.Table, def.Name)
				}
				if vals[r], err = storage.Coerce(v, def.Type); err != nil {
					return Result{}, err
				}
			}
			mt.set[k] = vals
		}
		n += len(mt.idx)
	}
	if moves {
		if err := moveRows(t, cols, matches); err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: n}, nil
	}
	for _, mt := range matches {
		for k, j := range cols {
			if err := t.UpdateShardInPlace(mt.shard, mt.idx, j, mt.set[k]); err != nil {
				return Result{}, err
			}
		}
	}
	return Result{RowsAffected: n}, nil
}

// moveRows writes the updated rows of a partition-key UPDATE: it
// appends them, routed by their new keys (AppendBatch checks the whole
// batch before any shard changes), then deletes the originals.
// Appending first keeps a failed statement from losing rows, and never
// shifts a shard's existing local indexes.
func moveRows(t *storage.Table, cols []int, matches []shardMatch) error {
	moved := storage.NewBatch(t.Schema())
	for _, mt := range matches {
		for r, i := range mt.idx {
			row := mt.data.Row(i)
			for k, j := range cols {
				row[j] = mt.set[k][r]
			}
			if err := moved.AppendRow(row...); err != nil {
				return err
			}
		}
	}
	if err := t.AppendBatch(moved); err != nil {
		return err
	}
	for _, mt := range matches {
		t.DeleteShardWhere(mt.shard, mt.idx)
	}
	return nil
}

// execDelete removes the rows the WHERE matches, shard by shard.
func (db *DB) execDelete(s *sql.DeleteStmt, ps *plan.Params) (Result, error) {
	t, err := db.cat.Get(s.Table)
	if err != nil {
		return Result{}, err
	}
	sc := plan.NewScope(t.Name(), t.Schema())
	shards := writeFootprint(t, sc, s.Where, ps, false)
	db.noteWrite(t, shards)
	t.LockShards(shards)
	defer t.UnlockShards(shards)
	matches, err := db.matchShards(t, sc, shards, s.Where, ps)
	if err != nil {
		return Result{}, err
	}
	n := 0
	for _, mt := range matches {
		t.DeleteShardWhere(mt.shard, mt.idx)
		n += len(mt.idx)
	}
	return Result{RowsAffected: n}, nil
}
