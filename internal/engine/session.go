package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Session is one client's scope over a shared DB: session variables
// (statement_timeout, parallelism), a transaction scope, and the
// cross-session write gate. The network server gives every connection
// its own Session; the embedded facade routes through a default one so
// SET works identically in the REPL and over the wire; and the DB-level
// Query*/Exec* family runs through the DB's own unregistered one.
//
// A session runs one statement at a time and is not safe for
// concurrent use by multiple goroutines (cancel a running statement
// through its context instead). The DB's embedded session is the
// exception: DB-level calls run on it concurrently, which its atomics
// allow because nothing SETs its variables; its transaction is the
// DB-level caller's, and statements that run beside it while it is
// open join it.
type Session struct {
	db *DB

	// maxWorkers caps this session's per-statement parallelism
	// (server-side admission control). 0 = no cap.
	maxWorkers int

	timeout  time.Duration // statement_timeout; 0 = disabled
	workers  int           // SET parallelism; 0 = engine default
	workMem  int64         // SET work_mem (bytes); 0 = engine default
	ownsGate atomic.Bool   // this session holds the write gate (open txn)

	info *sessionInfo // registry row (vx$sessions)
	// lastTrace and queueWait are atomics: a statement may run in one
	// goroutine while another (the server's writer, or a concurrent
	// caller blocked on the write gate) stamps the next statement's
	// queue wait or reads SHOW TRACE state.
	lastTrace atomic.Pointer[trace.Collector] // most recent traced statement (SHOW TRACE)
	queueWait atomic.Int64                    // pending admission wait (ns) for the next statement
}

// NewSession returns a fresh session over the database.
func (db *DB) NewSession() *Session {
	return &Session{db: db, info: db.registerSession(0)}
}

// NewSessionMaxWorkers returns a session whose per-statement
// parallelism is capped at max (the server's per-statement worker
// cap). max <= 0 means uncapped.
func (db *DB) NewSessionMaxWorkers(max int) *Session {
	if max < 0 {
		max = 0
	}
	return &Session{db: db, maxWorkers: max, info: db.registerSession(max)}
}

// StatementTimeout returns the session's statement_timeout (0 =
// disabled).
func (s *Session) StatementTimeout() time.Duration { return s.timeout }

// InTransaction reports whether this session holds an open
// transaction.
func (s *Session) InTransaction() bool { return s.ownsGate.Load() }

// Close releases the session's resources: an open transaction is
// rolled back, the write gate returned, and the session leaves the
// vx$sessions registry.
func (s *Session) Close() error {
	s.db.unregisterSession(s.info.id)
	if !s.ownsGate.Load() {
		return nil
	}
	return s.endTxn(false)
}

// stmtCtx applies statement_timeout to a statement's context.
func (s *Session) stmtCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, s.timeout)
}

// effectiveWorkMem resolves the per-statement memory grant in bytes
// (session override or engine default; 0 = unlimited).
func (s *Session) effectiveWorkMem() int64 {
	if s.workMem > 0 {
		return s.workMem
	}
	return s.db.WorkMem()
}

// effectiveWorkers resolves the per-statement worker count from the
// session override, the engine default, and the admission cap.
func (s *Session) effectiveWorkers() int {
	w := s.workers
	if w == 0 {
		w = s.db.Parallelism()
	}
	if s.maxWorkers > 0 && w > s.maxWorkers {
		w = s.maxWorkers
	}
	return w
}

// Run executes one statement of any kind. SELECT, SHOW, EXPLAIN and
// graph statements return materialized rows (and a Result whose
// RowsAffected is the row count); everything else returns nil rows.
// Embedded callers and the REPL dispatch through it; the wire server
// uses RunStream to avoid materializing results it is about to
// serialize.
func (s *Session) Run(ctx context.Context, text string) (*Rows, Result, error) {
	return materialize(s.RunStream(ctx, text))
}

// materialize drains a statement's rows, if any, so the Result counts
// them.
func materialize(rows *Rows, res Result, err error) (*Rows, Result, error) {
	if err != nil || rows == nil {
		return rows, res, err
	}
	if _, err := rows.Materialize(); err != nil {
		rows.Close()
		return nil, Result{}, err
	}
	return rows, Result{RowsAffected: rows.Len()}, nil
}

// RunStream executes one statement of any kind without materializing
// its result: a SELECT returns streaming rows whose batches are
// produced as the caller pulls them (the snapshot pin, operator tree
// and statement timeout live until the rows are drained or closed), so
// the first batch is available in O(first batch) time, not O(result).
// SHOW, EXPLAIN and graph statements return (small) materialized rows;
// everything else returns nil rows and runs to completion before
// returning. The returned Result's RowsAffected is meaningful only for
// non-SELECT statements.
func (s *Session) RunStream(ctx context.Context, text string) (*Rows, Result, error) {
	return s.execute(ctx, text, stmtArgs{}, false)
}

// RunStreamBound is RunStream for a prepared execution: text contains
// $1..$n placeholders and vals carries their values, which bind real
// Param nodes instead of being substituted into the text. A statement
// is parsed at most once per normalized text across the whole DB (the
// parse cache); every execution plans fresh with its arguments bound,
// so a `$n` on a partition key routes exactly as a literal would.
// Extra arguments beyond the statement's highest $n are permitted
// (and ignored).
func (s *Session) RunStreamBound(ctx context.Context, text string, vals []storage.Value) (*Rows, Result, error) {
	return s.execute(ctx, text, stmtArgs{bound: true, vals: vals}, false)
}

// QueryStream runs a statement that returns rows — SELECT, SHOW,
// EXPLAIN or a graph statement — as RunStreamBound does when bound is
// set and as RunStream does otherwise. Any other statement is refused
// after parse, before it runs.
func (s *Session) QueryStream(ctx context.Context, text string, bound bool, vals []storage.Value) (*Rows, error) {
	rows, _, err := s.execute(ctx, text, stmtArgs{bound: bound, vals: vals}, true)
	return rows, err
}

// stmtArgs are a statement's positional arguments. bound statements parse
// through the DB's parse cache; plain text (RunStream) parses fresh and
// leaves the cache alone, so unique-literal text traffic cannot evict
// hot prepared statements.
type stmtArgs struct {
	bound bool
	vals  []storage.Value
}

// errNoRows refuses a statement that returns no rows where rows are
// expected.
var errNoRows = errors.New("engine: statement returns no rows; use Exec")

// execute is the one statement lifecycle: parse, then run. With
// wantRows, a statement that returns no rows is refused between the
// two.
func (s *Session) execute(ctx context.Context, text string, a stmtArgs, wantRows bool) (*Rows, Result, error) {
	p, err := s.parse(text, a)
	if err != nil {
		return nil, Result{}, err
	}
	if wantRows {
		switch p.st.(type) {
		case *sql.SelectStmt, *sql.ShowStmt, *sql.ExplainStmt, *sql.GraphStmt:
		default:
			return nil, Result{}, errNoRows
		}
	}
	return s.run(ctx, p)
}

// parsedStmt is a statement between the two halves of the lifecycle.
type parsedStmt struct {
	st       sql.Statement
	text     string
	args     []storage.Value
	enter    time.Time // engine entry: where the statement's trace starts
	parseDur time.Duration
}

// parse is the first half of the lifecycle.
func (s *Session) parse(text string, a stmtArgs) (parsedStmt, error) {
	p := parsedStmt{text: text, args: a.vals, enter: time.Now()}
	var (
		nParams int
		err     error
	)
	if a.bound {
		p.st, nParams, err = s.db.parseCache.parse(text)
	} else {
		p.st, err = sql.Parse(text)
	}
	p.parseDur = time.Since(p.enter)
	if err != nil {
		return parsedStmt{}, err
	}
	if nParams > len(a.vals) {
		return parsedStmt{}, fmt.Errorf("engine: statement wants %d arguments, got %d", nParams, len(a.vals))
	}
	return p, nil
}

// logText is the text a data statement is traced and WAL-logged as.
// Parameterized DML executes with bound Param nodes but is logged as
// the substituted rendering: replay reads text alone, with no argument
// stream alongside it.
func (p parsedStmt) logText() (string, error) {
	if _, isSelect := p.st.(*sql.SelectStmt); isSelect || len(p.args) == 0 {
		return p.text, nil
	}
	return sql.SubstituteParams(p.text, p.args)
}

// run is the second half of the lifecycle: count → (session control
// returns here) → trace start → statement_timeout → run → observe →
// trace finish. A statement whose ctx carries WithGateHeld is nested:
// see runNested.
func (s *Session) run(ctx context.Context, p parsedStmt) (*Rows, Result, error) {
	if GateHeld(ctx) {
		return s.runNested(ctx, p)
	}
	s.db.countStmt(p.st)

	// Session control and EXPLAIN take no parameters and are not traced.
	switch t := p.st.(type) {
	case *sql.SetStmt:
		return nil, Result{}, s.applySet(t)
	case *sql.ShowStmt:
		return materialized(s.show(t.Name))
	case *sql.BeginStmt:
		// BEGIN can block on the write gate, so statement_timeout
		// governs it like any other statement.
		bctx, cancel := s.stmtCtx(ctx)
		defer cancel()
		return nil, Result{}, s.begin(bctx)
	case *sql.CommitStmt:
		return nil, Result{}, s.endTxn(true)
	case *sql.RollbackStmt:
		return nil, Result{}, s.endTxn(false)
	case *sql.ExplainStmt:
		ectx, cancel := s.stmtCtx(ctx)
		defer cancel()
		return materialized(s.runExplain(ectx, t))
	}

	stmtText, err := p.logText()
	if err != nil {
		return nil, Result{}, err
	}
	start := time.Now()
	tc := s.startTrace(stmtText, p.enter, p.parseDur)
	sctx, cancel := s.stmtCtx(ctx)
	sctx = trace.WithCollector(sctx, tc)

	if sel, ok := p.st.(*sql.SelectStmt); ok {
		rows, err := s.db.openSelect(sctx, sel, p.args, s.effectiveWorkers(), s.effectiveWorkMem(), s)
		if err != nil {
			cancel()
			s.db.finishTrace(tc)
			return nil, Result{}, err
		}
		// The timeout context governs the whole stream, so its cancel
		// runs when the rows finish — as does the statement's
		// observation and trace publication.
		rows.cleanup = append(rows.cleanup, cancel)
		s.db.hookSlowQuery(rows, p.text, start, tc)
		return rows, Result{}, nil
	}

	defer s.db.finishTrace(tc)
	defer cancel()
	var (
		rows *Rows
		res  Result
	)
	if g, ok := p.st.(*sql.GraphStmt); ok {
		if rows, err = s.runGraph(sctx, g, false, false); err == nil {
			res.RowsAffected = rows.Len()
		}
	} else {
		// Outside a transaction this is an auto-commit write: admission
		// holds the cross-session gate for just this statement so it
		// cannot interleave with (and be undone by the rollback of)
		// another session's transaction.
		res, _, err = s.db.admitWrite(sctx, p.st, stmtText, plan.NewParams(p.args), s)
	}
	s.db.observeStatement(stmtText, time.Since(start), int64(res.RowsAffected), stmtKind(p.st), tc.ID())
	return rows, res, err
}

// runNested runs a statement issued inside an operation that already
// holds the write gate — a graph run, a SQL graph driver's step, the
// vertex runtime's input assembly. The statement is detail of that
// operation, which owns the gate, the count, the trace, the timeout
// and the observation: it gets none of its own.
func (s *Session) runNested(ctx context.Context, p parsedStmt) (*Rows, Result, error) {
	if sel, ok := p.st.(*sql.SelectStmt); ok {
		rows, err := s.db.openSelect(ctx, sel, p.args, s.effectiveWorkers(), s.effectiveWorkMem(), s)
		return rows, Result{}, err
	}
	stmtText, err := p.logText()
	if err != nil {
		return nil, Result{}, err
	}
	res, _, err := s.db.admitWrite(ctx, p.st, stmtText, plan.NewParams(p.args), nil)
	return nil, res, err
}

// materialized shapes a small materialized result (SHOW, EXPLAIN) as a
// statement outcome.
func materialized(rows *Rows, err error) (*Rows, Result, error) {
	if err != nil {
		return nil, Result{}, err
	}
	return rows, Result{RowsAffected: rows.Len()}, nil
}

// runGraph dispatches a graph statement — or its EXPLAIN [ANALYZE]
// form — to the runner the graph runtime registered. A run mutates the
// graph's tables under the cross-session write gate, which the runner
// takes itself; a session that already owns the gate (open
// transaction) would deadlock against its own run (and bypass the
// transaction's undo scope anyway), so it is refused here. Plain
// EXPLAIN only reads and stays allowed.
func (s *Session) runGraph(ctx context.Context, g *sql.GraphStmt, explain, analyze bool) (*Rows, error) {
	s.db.mu.RLock()
	run := s.db.graphRunner
	s.db.mu.RUnlock()
	verb := strings.ToUpper(g.Verb)
	if run == nil {
		return nil, fmt.Errorf("engine: %s: no graph runtime attached", verb)
	}
	if s.ownsGate.Load() && (analyze || !explain) {
		return nil, fmt.Errorf("engine: cannot run %s inside a transaction", verb)
	}
	b, stats, err := run(ctx, g, explain, analyze, s.effectiveWorkers())
	if err != nil {
		return nil, err
	}
	rows := MaterializedRows(b)
	rows.Stats = stats
	return rows, nil
}

// QueryContext runs a statement that returns rows — SELECT, SHOW,
// EXPLAIN or a graph statement — through the session and materializes
// them. Any other statement is refused before it runs.
func (s *Session) QueryContext(ctx context.Context, text string) (*Rows, error) {
	rows, _, err := materialize(s.execute(ctx, text, stmtArgs{}, true))
	return rows, err
}

// ExecContext runs any non-SELECT statement through the session.
func (s *Session) ExecContext(ctx context.Context, text string) (Result, error) {
	_, res, err := s.Run(ctx, text)
	return res, err
}

// begin opens a transaction owned by the session, holding the
// exclusive write gate until endTxn.
func (s *Session) begin(ctx context.Context) error {
	if s.ownsGate.Load() {
		return fmt.Errorf("engine: transaction already open in this session")
	}
	if err := s.db.AcquireWriteGate(ctx); err != nil {
		return err
	}
	if err := s.db.begin(s); err != nil {
		s.db.ReleaseWriteGate()
		return err
	}
	s.ownsGate.Store(true)
	s.info.inTxn.Store(true)
	return nil
}

func (s *Session) endTxn(commit bool) error {
	if !s.ownsGate.Load() {
		return fmt.Errorf("engine: no open transaction in this session")
	}
	var err error
	if commit {
		err = s.db.commit()
	} else {
		err = s.db.rollback()
	}
	if err != nil && s.db.InTransaction() {
		// COMMIT failed with the transaction still open (e.g. a WAL
		// write error): keep the gate and the session's ownership so
		// the client can retry or ROLLBACK — releasing here would
		// orphan an open undo scope that a later rollback could use
		// to clobber other sessions' committed writes.
		return err
	}
	s.ownsGate.Store(false)
	s.info.inTxn.Store(false)
	s.db.ReleaseWriteGate()
	return err
}

// Session variables. temp_tablespace, temp_file_limit and trace_sample
// configure engine-global state (spill placement is a process-wide
// filesystem; the tracer is per-DB) but are set through the session
// SET statement like everything else.
const (
	varStatementTimeout = "statement_timeout"
	varParallelism      = "parallelism"
	varWorkerBudget     = "worker_budget"
	varWorkMem          = "work_mem"
	varMemoryBudget     = "memory_budget"
	varTempTablespace   = "temp_tablespace"
	varTempFileLimit    = "temp_file_limit"
	varTraceSample      = "trace_sample"
)

// applySet assigns a session variable from SET <name> = <expr>.
func (s *Session) applySet(st *sql.SetStmt) error {
	v, err := evalConst(st.Value, s.db.Funcs())
	if err != nil {
		return fmt.Errorf("engine: SET %s: %w", st.Name, err)
	}
	switch strings.ToLower(st.Name) {
	case varStatementTimeout:
		ms := v.AsInt()
		if v.Null || ms < 0 {
			return fmt.Errorf("engine: SET statement_timeout wants milliseconds >= 0, got %s", v)
		}
		s.timeout = time.Duration(ms) * time.Millisecond
		return nil
	case varParallelism:
		n := v.AsInt()
		if v.Null || n < 0 {
			return fmt.Errorf("engine: SET parallelism wants a worker count >= 0, got %s", v)
		}
		s.workers = int(n)
		s.info.workers.Store(n)
		return nil
	case varWorkMem:
		n := v.AsInt()
		if v.Null || n < 0 {
			return fmt.Errorf("engine: SET work_mem wants bytes >= 0, got %s", v)
		}
		s.workMem = n // 0 restores the engine default
		s.info.workMem.Store(n)
		return nil
	case varTempTablespace:
		if v.Type != storage.TypeString || v.Null {
			return fmt.Errorf("engine: SET temp_tablespace wants a directory string, got %s", v)
		}
		return storage.SetSpillDir(v.S) // '' restores the system temp dir
	case varTempFileLimit:
		n := v.AsInt()
		if v.Null || n < 0 {
			return fmt.Errorf("engine: SET temp_file_limit wants bytes >= 0, got %s", v)
		}
		storage.SetSpillDiskCap(n) // 0 removes the cap
		return nil
	case varTraceSample:
		n := v.AsInt()
		if v.Null || n < 0 {
			return fmt.Errorf("engine: SET trace_sample wants a stride >= 0, got %s", v)
		}
		s.db.tracer.SetSampling(n)
		return nil
	default:
		return fmt.Errorf("engine: unknown session variable %q", st.Name)
	}
}

// show materializes a session variable as a one-row result, or the
// whole metrics registry for SHOW STATS.
func (s *Session) show(name string) (*Rows, error) {
	if strings.EqualFold(name, "stats") {
		return s.showStats()
	}
	if strings.EqualFold(name, "trace") {
		return s.showTrace()
	}
	var v int64
	switch strings.ToLower(name) {
	case varStatementTimeout:
		v = s.timeout.Milliseconds()
	case varParallelism:
		v = int64(s.effectiveWorkers())
	case varWorkerBudget:
		v = int64(s.db.budget.Capacity())
	case varWorkMem:
		v = s.effectiveWorkMem()
	case varMemoryBudget:
		v = s.db.memPool.Capacity()
	case varTempFileLimit:
		v = storage.SpillDiskCap()
	case varTraceSample:
		v = s.db.tracer.Sampling()
	case varTempTablespace:
		b := storage.NewBatch(storage.NewSchema(storage.Col(varTempTablespace, storage.TypeString)))
		if err := b.AppendRow(storage.Str(storage.SpillDirPath())); err != nil {
			return nil, err
		}
		return MaterializedRows(b), nil
	default:
		return nil, fmt.Errorf("engine: unknown session variable %q", name)
	}
	b := storage.NewBatch(storage.NewSchema(storage.Col(strings.ToLower(name), storage.TypeInt64)))
	if err := b.AppendRow(storage.Int64(v)); err != nil {
		return nil, err
	}
	return MaterializedRows(b), nil
}

// showTrace renders the session's most recent traced statement, one
// row per span in append order — the quick interactive view; the
// vx$trace_spans system table serves the queryable form.
func (s *Session) showTrace() (*Rows, error) {
	b := storage.NewBatch(storage.NewSchema(
		storage.Col("seq", storage.TypeInt64),
		storage.Col("depth", storage.TypeInt64),
		storage.Col("stage", storage.TypeString),
		storage.Col("start_us", storage.TypeInt64),
		storage.Col("dur_us", storage.TypeInt64),
		storage.Col("detail", storage.TypeString),
	))
	if tc := s.lastTrace.Load(); tc != nil {
		for i, sp := range tc.Spans() {
			if err := b.AppendRow(
				storage.Int64(int64(i)),
				storage.Int64(int64(sp.Depth)),
				storage.Str(sp.Stage),
				storage.Int64(sp.StartNs/1e3),
				storage.Int64(sp.DurNs/1e3),
				storage.Str(sp.Detail),
			); err != nil {
				return nil, err
			}
		}
	}
	return MaterializedRows(b), nil
}

// showStats materializes the metrics registry as a two-column result
// (name VARCHAR, value BIGINT), sorted by name — the SHOW STATS
// statement every client sees over the wire.
func (s *Session) showStats() (*Rows, error) {
	b := storage.NewBatch(storage.NewSchema(
		storage.Col("name", storage.TypeString),
		storage.Col("value", storage.TypeInt64),
	))
	for _, st := range s.db.obs.Snapshot() {
		if err := b.AppendRow(storage.Str(st.Name), storage.Int64(st.Value)); err != nil {
			return nil, err
		}
	}
	return MaterializedRows(b), nil
}

// evalConst evaluates a constant expression (no column references)
// against an empty scope — the same machinery INSERT VALUES rows use.
func evalConst(e sql.Expr, funcs *expr.Registry) (storage.Value, error) {
	bound, err := plan.BindExpr(e, &plan.Scope{}, funcs)
	if err != nil {
		return storage.Value{}, err
	}
	return bound.Eval(expr.Row{})
}
