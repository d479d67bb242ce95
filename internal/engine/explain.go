package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/sql"
	"repro/internal/storage"
)

// EXPLAIN [ANALYZE] execution. The result is a one-column VARCHAR
// ("plan") stream, one row per rendered line, so it travels over the
// wire protocol like any other SELECT result. Plain EXPLAIN plans the
// statement (pinning and releasing a read snapshot) without running it;
// ANALYZE runs it to completion and annotates every plan node with the
// operator counters the executor accumulated.

// runExplain dispatches EXPLAIN over the inner statement kind.
func (s *Session) runExplain(ctx context.Context, ex *sql.ExplainStmt) (*Rows, error) {
	var (
		lines []string
		err   error
	)
	switch inner := ex.Stmt.(type) {
	case *sql.SelectStmt:
		lines, err = s.explainSelect(ctx, inner, ex.Analyze)
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt,
		*sql.CreateTableStmt, *sql.DropTableStmt, *sql.TruncateStmt:
		lines, err = s.explainWrite(ctx, ex)
	case *sql.GraphStmt:
		return s.runGraph(ctx, inner, true, ex.Analyze)
	default:
		return nil, fmt.Errorf("engine: EXPLAIN does not support %T", ex.Stmt)
	}
	if err != nil {
		return nil, err
	}
	b := storage.NewBatch(storage.NewSchema(storage.Col("plan", storage.TypeString)))
	for _, l := range lines {
		if err := b.AppendRow(storage.Str(l)); err != nil {
			return nil, err
		}
	}
	return MaterializedRows(b), nil
}

// explainSelect plans (and for ANALYZE, executes) a SELECT and renders
// its plan tree. The header line reports the planning context EXPLAIN
// exists to surface: the worker count the plan was built for and the
// read mode.
func (s *Session) explainSelect(ctx context.Context, sel *sql.SelectStmt, analyze bool) ([]string, error) {
	workers, workMem := s.effectiveWorkers(), s.effectiveWorkMem()
	root, release, err := s.db.planSelect(ctx, sel, nil, workers, workMem, s)
	if err != nil {
		return nil, err
	}
	defer release()

	lines := []string{fmt.Sprintf("plan (workers=%d, mode=snapshot)", workers)}
	if !analyze {
		// The tree was never opened, so there is nothing to close: the
		// plan holds only the snapshot pin released above.
		return append(lines, exec.Explain(root, false)...), nil
	}
	start := time.Now()
	stopTiming := exec.MarkTimed(root)
	data, err := exec.Drain(root)
	stopTiming()
	if err != nil {
		return nil, err
	}
	lines = append(lines, fmt.Sprintf("executed: rows=%d time=%s", data.Len(), time.Since(start).Round(time.Microsecond)))
	return append(lines, exec.Explain(root, true)...), nil
}

// explainWrite describes how a write statement would be admitted —
// sharded fast path versus the serialized exclusive gate — and under
// ANALYZE actually runs it through the normal write admission (the
// statement commits; ANALYZE of a write is a real write, as in
// PostgreSQL).
func (s *Session) explainWrite(ctx context.Context, ex *sql.ExplainStmt) ([]string, error) {
	st := ex.Stmt
	db := s.db

	route := "serialized (exclusive write gate)"
	if fastWriteShapeEligible(st) {
		if s.ownsGate.Load() || db.InTransaction() {
			route = "fast-path shape, but serialized (transaction open)"
		} else {
			route = "sharded fast path (shared gate + per-shard statement locks)"
		}
	}
	lines := []string{fmt.Sprintf("write %s: %s", stmtKind(st), route)}
	if !ex.Analyze {
		return lines, nil
	}

	start := time.Now()
	res, fast, err := db.admitWrite(ctx, st, st.String(), nil, s)
	if err != nil {
		return nil, err
	}
	how := "serialized"
	if fast {
		how = "via fast path"
	}
	return append(lines, fmt.Sprintf("executed %s: rows=%d time=%s",
		how, res.RowsAffected, time.Since(start).Round(time.Microsecond))), nil
}
