package engine

import (
	"context"

	"repro/internal/plan"
	"repro/internal/sql"
)

// The sharded write fast path: an eligible auto-commit DML statement
// runs under the SHARED write gate and the SHARED engine latch,
// serializing against other writers only through the per-shard
// statement locks of the table it touches. Writers on disjoint shards
// of the same table — or on different tables — proceed in parallel,
// which is the point of partitioning the storage layer; the exclusive
// gate survives for transactions, DDL, and every statement shape the
// fast path declines.
//
// The two routes differ only in admission. Both run the one DML
// executor (execLocked), which takes each statement's footprint of
// shard statement locks itself: the shards an INSERT's rows hash to;
// for UPDATE and DELETE the one shard the WHERE pins by the planner's
// routing rule (plan.PinnedShard), else every shard, and every shard
// for an UPDATE that writes the partition key (it moves rows). Under
// the exclusive latch those locks are uncontended. Readers never block
// on any of this: they pin MVCC snapshots, and
// ShardedTable.SnapshotShard's brief statement-lock acquisition
// guarantees each shard is captured whole — never mid-statement.
// Atomicity ACROSS shards is the per-shard-lock tradeoff: a reader
// pinning its snapshot while a fast-path statement is in flight may see
// some shards before and some after that statement (each shard
// internally consistent). Transactions keep full whole-database
// atomicity via the exclusive gate.
//
// Eligibility: no transaction is open, and the statement is a
// single-table INSERT ... VALUES, UPDATE, or DELETE.
//
// WAL ordering: two concurrent fast-path statements append to the log
// in whatever order they finish. That is sound because they commute —
// overlapping footprints are serialized by the shard statement locks,
// so concurrent statements touch disjoint rows and replay in either
// order yields the same state.

// tryFastWrite attempts the fast path for st. It returns handled=false
// (and no error) when the statement is ineligible — the caller then
// falls back to the exclusive gate and serialized execution. When
// handled, the statement ran to completion (res/err are final). For a
// prepared execution ps carries the bound arguments and text must be
// the substituted rendering (the WAL replays text alone).
func (db *DB) tryFastWrite(ctx context.Context, st sql.Statement, text string, ps *plan.Params) (Result, bool, error) {
	if !fastWriteShapeEligible(st) {
		if _, isInsert := st.(*sql.InsertStmt); isInsert {
			// INSERT ... SELECT may read the target table; keep it on
			// the serialized path.
			db.obs.Counter("engine.fastpath.declined").Inc()
		}
		return Result{}, false, nil
	}
	// An already-cancelled statement must not commit. The gate select
	// below picks an arbitrary ready case, so without this check a
	// cancelled context could still slip through and run.
	if err := ctx.Err(); err != nil {
		return Result{}, true, err
	}
	// Failing to get a shared slot (timeout, cancel) is final: falling
	// back would only queue the dead statement on the exclusive gate.
	if err := db.acquireSharedGate(ctx); err != nil {
		return Result{}, true, err
	}
	// No transaction is open: every transaction holds the exclusive
	// gate from BEGIN on (Session.begin), which no shared slot overlaps.
	db.mu.RLock()
	res, err := db.execLocked(ctx, st, ps)
	if err == nil {
		err = db.logStatement(ctx, text) // txn is nil: appends straight to the WAL
		db.mvcc.Publish()
	}
	db.mu.RUnlock()
	db.releaseSharedGate()
	db.obs.Counter("engine.fastpath.taken").Inc()
	return res, true, err
}

// fastWriteShapeEligible is the fast path's statement-shape check:
// INSERT ... VALUES, UPDATE and DELETE qualify; INSERT ... SELECT and
// everything else never do.
func fastWriteShapeEligible(st sql.Statement) bool {
	switch s := st.(type) {
	case *sql.InsertStmt:
		return s.Select == nil
	case *sql.UpdateStmt, *sql.DeleteStmt:
		return true
	}
	return false
}
