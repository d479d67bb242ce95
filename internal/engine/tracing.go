package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/trace"
)

// Statement-lifecycle tracing glue: the DB owns one trace.Tracer, every
// session registers itself for the vx$sessions view, and statement
// entry points stamp lifecycle spans (admission, parse, plan, grant,
// open, gate, exec, wal, drain) into the statement's
// collector. The collector travels by context into layers that would
// otherwise need signature churn (WAL append), and its ring is what the
// vx$traces / vx$trace_spans system views scan.

// sessionInfo is one session's registry row. System-view scans read it
// from other goroutines while the session runs statements, so every
// mutable field is an atomic.
type sessionInfo struct {
	id         uint64
	maxWorkers int64        // admission cap fixed at session creation
	workers    atomic.Int64 // SET parallelism (0 = engine default)
	workMem    atomic.Int64 // SET work_mem (0 = engine default)
	inTxn      atomic.Bool
	stmts      atomic.Int64  // data statements started
	lastTrace  atomic.Uint64 // trace id of the most recent traced statement
}

// registerSession adds a session to the registry (vx$sessions).
func (db *DB) registerSession(maxWorkers int) *sessionInfo {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	db.sessSeq++
	info := &sessionInfo{id: db.sessSeq, maxWorkers: int64(maxWorkers)}
	db.sessions[info.id] = info
	return info
}

// unregisterSession drops a closed session from the registry.
func (db *DB) unregisterSession(id uint64) {
	db.sessMu.Lock()
	delete(db.sessions, id)
	db.sessMu.Unlock()
}

// sessionInfos snapshots the registry rows in id order.
func (db *DB) sessionInfos() []*sessionInfo {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	out := make([]*sessionInfo, 0, len(db.sessions))
	for _, info := range db.sessions {
		out = append(out, info)
	}
	return out
}

// Tracer exposes the statement tracer (sampling knob, recent ring).
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// traceHooksOn gates the statement-trace entry point, mirroring
// exec.SetStatsEnabled for operator counters: TestTraceOverhead flips
// it off to measure what the disabled tracing fabric costs relative to
// an engine with no tracing at all. It is process-wide and exists for
// measurement, not operation — use SET trace_sample = 0 to turn
// tracing off.
var traceHooksOn atomic.Bool

func init() { traceHooksOn.Store(true) }

// SetTraceHooks enables or disables the statement-trace entry point.
func SetTraceHooks(on bool) { traceHooksOn.Store(on) }

// NoteQueueWait records how long the next statement waited in the
// server's per-connection admission queue before reaching the session;
// the session folds it into that statement's trace as the admission
// span. One statement consumes it.
func (s *Session) NoteQueueWait(d time.Duration) {
	if d > 0 {
		s.queueWait.Store(int64(d))
	}
}

// startTrace opens a trace for one data statement: the trace starts at
// engine entry shifted earlier by any admission-queue wait (so the wait
// is inside the trace), and the parse span is stamped from the caller's
// measurement. Returns nil when tracing is off.
func (s *Session) startTrace(text string, enter time.Time, parseDur time.Duration) *trace.Collector {
	s.info.stmts.Add(1)
	wait := time.Duration(s.queueWait.Swap(0))
	if !traceHooksOn.Load() {
		return nil
	}
	tc := s.db.tracer.StartAt(s.info.id, text, enter.Add(-wait))
	if tc == nil {
		return nil
	}
	if wait > 0 {
		tc.Add("admission", enter.Add(-wait), wait, "server statement queue")
	}
	tc.Add("parse", enter, parseDur, "")
	s.lastTrace.Store(tc)
	s.info.lastTrace.Store(tc.ID())
	return tc
}

// finishTrace completes a statement's trace (nil-safe).
func (db *DB) finishTrace(tc *trace.Collector) {
	if tc == nil {
		return
	}
	db.tracer.Finish(tc, time.Since(tc.StartTime()))
}

// LastTraceID returns the trace id of the session's most recent traced
// statement (0 when tracing is off). The wire server reports it in the
// Done-frame trailer so clients can join their statement against
// vx$traces.
func (s *Session) LastTraceID() uint64 {
	return s.info.lastTrace.Load()
}

// addOperatorSpans folds the executor's per-operator counters into the
// trace as depth-1+ spans nested inside the drain stage. Operator time
// includes child pulls, so these spans are detail, not addends: only
// depth-0 lifecycle spans sum to the statement duration. Operators that
// spilled get an extra explicit spill span.
func addOperatorSpans(tc *trace.Collector, root exec.Operator, drainStart time.Time) {
	if tc == nil || root == nil {
		return
	}
	off := int64(drainStart.Sub(tc.StartTime()))
	for _, r := range exec.StatsReport(root) {
		tc.AddSpan(trace.Span{
			Stage:   "op:" + r.Name,
			Detail:  fmt.Sprintf("rows=%d batches=%d", r.Rows, r.Batches),
			StartNs: off,
			DurNs:   r.Nanos,
			Depth:   int32(1 + r.Depth),
		})
		if r.SpillRuns > 0 {
			tc.AddSpan(trace.Span{
				Stage:   "spill",
				Detail:  fmt.Sprintf("op=%s runs=%d bytes=%d", r.Name, r.SpillRuns, r.SpillBytes),
				StartNs: off,
				DurNs:   0,
				Depth:   int32(1 + r.Depth),
			})
		}
	}
}

// sysTableVersion hands out distinct versions for system-table
// materializations (every scan sees fresh data).
var sysTableVersion atomic.Uint64
