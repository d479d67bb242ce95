package engine

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/trace"
)

// SlowQuery is one slow-statement record: what ran, how long it took,
// how many rows it produced (SELECT) or affected (writes), and the
// compact plan shape (exec.Summary) so a log line identifies the access
// path without re-running EXPLAIN. TraceID joins the record against
// vx$traces / vx$trace_spans (0 when tracing is off), and Fingerprint
// is the parse cache's normalization of the statement text, so a log
// line groups with its cache entry and with other spellings of the
// same statement.
type SlowQuery struct {
	Text        string
	Duration    time.Duration
	Rows        int64
	Plan        string
	TraceID     uint64
	Fingerprint string
}

// String renders the record as the structured single-line format the
// default log sink writes.
func (q SlowQuery) String() string {
	return fmt.Sprintf("slow-query duration=%s rows=%d trace_id=%d fingerprint=%s plan=%s text=%s",
		q.Duration.Round(time.Microsecond), q.Rows, q.TraceID,
		strconv.Quote(q.Fingerprint), q.Plan, strconv.Quote(q.Text))
}

// SetSlowQueryThreshold enables the slow-query log: statements that run
// longer than d are reported to the configured sink (stderr unless
// SetSlowQueryLog installed one). d <= 0 disables logging (the
// default). For a streaming SELECT the measured duration spans from
// planning to the moment the stream finishes — what the client
// experienced, not just executor time.
func (db *DB) SetSlowQueryThreshold(d time.Duration) {
	db.slowMu.Lock()
	if d < 0 {
		d = 0
	}
	db.slowThreshold = d
	db.slowMu.Unlock()
	// Retention coupling: a statement slow enough to be logged always
	// keeps its trace, whatever the sampling stride says.
	db.tracer.SetSlowThreshold(d)
}

// SetSlowQueryLog installs fn as the slow-query sink. fn must be safe
// for concurrent use; it is called synchronously on the statement's
// goroutine. nil restores the default sink (one line to stderr).
func (db *DB) SetSlowQueryLog(fn func(SlowQuery)) {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	db.slowLog = fn
}

// observeStatement records one finished statement: the engine-wide
// latency histogram always, and a slow-query record when a threshold is
// set and exceeded. traceID ties the log line to its vx$traces row
// (0 when the statement was not traced); the fingerprint is computed
// only for statements slow enough to log.
func (db *DB) observeStatement(text string, d time.Duration, rows int64, plan string, traceID uint64) {
	db.obs.Histogram("engine.statement_latency").Observe(d)
	db.slowMu.Lock()
	th, fn := db.slowThreshold, db.slowLog
	db.slowMu.Unlock()
	if th <= 0 || d < th {
		return
	}
	db.obs.Counter("engine.slow_queries").Inc()
	q := SlowQuery{
		Text:        text,
		Duration:    d,
		Rows:        rows,
		Plan:        plan,
		TraceID:     traceID,
		Fingerprint: normalizeStatement(text),
	}
	if fn != nil {
		fn(q)
		return
	}
	fmt.Fprintln(os.Stderr, q.String())
}

// hookSlowQuery arranges for a streaming SELECT to be observed when its
// stream finishes (drained, closed, or failed): a cleanup closure
// captures the start time and reads the rows' emitted count and root
// operator once the drain is over, so the recorded duration is what the
// client experienced end to end. The same closure completes the
// statement's trace: it stamps the drain span and the per-operator
// detail, then publishes the collector into the tracer's ring. Traced
// statements run with per-operator timing enabled (MarkTimed) so the
// operator spans carry real nanosecond counts.
func (db *DB) hookSlowQuery(rows *Rows, text string, start time.Time, tc *trace.Collector) {
	var release func()
	if tc != nil && rows.root != nil {
		release = exec.MarkTimed(rows.root)
	}
	drainStart := time.Now()
	rows.cleanup = append(rows.cleanup, func() {
		if release != nil {
			release()
		}
		plan := ""
		if rows.root != nil {
			plan = exec.Summary(rows.root)
		}
		if tc != nil {
			tc.Add("drain", drainStart, time.Since(drainStart), fmt.Sprintf("rows=%d", rows.emitted))
			addOperatorSpans(tc, rows.root, drainStart)
			db.finishTrace(tc)
		}
		db.observeStatement(text, time.Since(start), rows.emitted, plan, tc.ID())
	})
}

// stmtKind maps a statement to its counter label.
func stmtKind(st sql.Statement) string {
	switch st.(type) {
	case *sql.SelectStmt:
		return "select"
	case *sql.InsertStmt:
		return "insert"
	case *sql.UpdateStmt:
		return "update"
	case *sql.DeleteStmt:
		return "delete"
	case *sql.CreateTableStmt:
		return "create"
	case *sql.DropTableStmt:
		return "drop"
	case *sql.TruncateStmt:
		return "truncate"
	case *sql.SetStmt:
		return "set"
	case *sql.ShowStmt:
		return "show"
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		return "txn"
	case *sql.ExplainStmt:
		return "explain"
	case *sql.GraphStmt:
		return "graph"
	}
	return "other"
}

// countStmt feeds the per-kind statement counters SHOW STATS reports
// (engine.statements.<kind>). Sessions call it once per statement run;
// WAL replay does not go through Sessions, so recovery does not inflate
// the counts.
func (db *DB) countStmt(st sql.Statement) {
	db.obs.Counter("engine.statements." + stmtKind(st)).Inc()
}
