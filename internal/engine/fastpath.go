package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
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
// Eligibility: no transaction is open, and the statement is a
// single-table INSERT ... VALUES (locks just the shards its rows hash
// to), UPDATE, or DELETE. An UPDATE or DELETE whose
// WHERE pins the partition key to a constant (or bound parameter)
// locks only that key's shard — point writes on disjoint keys commit
// in parallel; any other WHERE locks every shard of the table (its
// footprint is unknown before evaluation, and the
// read-match-then-mutate sequence must be atomic against concurrent
// writers). Readers never block on any of this: they pin MVCC
// snapshots, and ShardedTable.SnapshotShard's brief statement-lock
// acquisition guarantees each shard is captured whole — never mid-
// statement. Atomicity ACROSS shards is the per-shard-lock tradeoff:
// a reader pinning its snapshot while a fast-path statement is in
// flight may see some shards before and some after that statement
// (each shard internally consistent). Transactions keep full
// whole-database atomicity via the exclusive gate.
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
	var res Result
	var err error
	switch s := st.(type) {
	case *sql.InsertStmt:
		res, err = db.fastInsert(ctx, s, ps)
	case *sql.UpdateStmt:
		res, err = db.fastUpdate(s, ps)
	case *sql.DeleteStmt:
		res, err = db.fastDelete(s, ps)
	}
	if err == nil {
		err = db.logStatement(ctx, text) // txn is nil: appends straight to the WAL
		db.mvcc.Publish()
	}
	db.mu.RUnlock()
	db.releaseSharedGate()
	db.obs.Counter("engine.fastpath.taken").Inc()
	return res, true, err
}

// fastInsert evaluates the VALUES rows, computes the set of shards they
// hash to, and appends under just those shards' statement locks.
func (db *DB) fastInsert(ctx context.Context, s *sql.InsertStmt, ps *plan.Params) (Result, error) {
	t, err := db.cat.Get(s.Table)
	if err != nil {
		return Result{}, err
	}
	colIdx, input, err := db.buildInsertInput(ctx, s, t, ps)
	if err != nil {
		return Result{}, err
	}
	shards := insertShardSet(t, colIdx, input)
	t.LockShards(shards)
	defer t.UnlockShards(shards)
	n, err := appendInsertRows(t, colIdx, input)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: n}, nil
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
	for i := 0; i < input.Len(); i++ {
		v := nullKey // key column unspecified: the row carries NULL
		if kpos >= 0 {
			v = input.Cols[kpos].Value(i)
		}
		sh, err := t.ShardOf(v)
		if err != nil {
			// Uncoercible key: AppendRow will route it to shard 0 (and
			// likely fail); lock shard 0 so the failure is serialized.
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

// fastUpdate runs UPDATE under shard statement locks. A WHERE that
// pins the partition key confines match and mutation to one shard —
// only it is locked, so point updates on disjoint keys run in
// parallel. Updating the key column itself falls back to the
// all-shards path (UpdateInPlace never re-routes rows, so semantics
// match either way; the conservative footprint keeps the invariant
// "a row's shard always agrees with its key hash" obviously intact).
func (db *DB) fastUpdate(s *sql.UpdateStmt, ps *plan.Params) (Result, error) {
	t, err := db.cat.Get(s.Table)
	if err != nil {
		return Result{}, err
	}
	if shard, ok := pinnedShard(t, s.Where, ps); ok && !updatesShardKey(t, s.Set) {
		one := []int{shard}
		t.LockShards(one)
		defer t.UnlockShards(one)
		return db.execUpdateShard(s, ps, t, shard)
	}
	all := t.AllShards()
	t.LockShards(all)
	defer t.UnlockShards(all)
	return db.execUpdate(s, ps)
}

// fastDelete mirrors fastUpdate for DELETE.
func (db *DB) fastDelete(s *sql.DeleteStmt, ps *plan.Params) (Result, error) {
	t, err := db.cat.Get(s.Table)
	if err != nil {
		return Result{}, err
	}
	if shard, ok := pinnedShard(t, s.Where, ps); ok {
		one := []int{shard}
		t.LockShards(one)
		defer t.UnlockShards(one)
		return db.execDeleteShard(s, ps, t, shard)
	}
	all := t.AllShards()
	t.LockShards(all)
	defer t.UnlockShards(all)
	return db.execDelete(s, ps)
}

// pinnedShard reports the single shard a WHERE clause confines the
// statement to: some AND-level conjunct equates the partition key with
// a literal (or bound parameter) whose type matches the key column
// under the same rules the planner's read-side routing applies.
func pinnedShard(t *storage.Table, where sql.Expr, ps *plan.Params) (int, bool) {
	if t.NumShards() < 2 || t.ShardKey() < 0 || where == nil {
		return 0, false
	}
	for _, cj := range conjuncts(where, nil) {
		b, ok := cj.(*sql.BinExpr)
		if !ok || b.Op != "=" {
			continue
		}
		if sh, ok := pinShard(t, b.L, b.R, ps); ok {
			return sh, true
		}
		if sh, ok := pinShard(t, b.R, b.L, ps); ok {
			return sh, true
		}
	}
	return 0, false
}

// conjuncts flattens a tree of ANDs into its conjunct list.
func conjuncts(e sql.Expr, into []sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinExpr); ok && strings.EqualFold(b.Op, "AND") {
		return conjuncts(b.R, conjuncts(b.L, into))
	}
	return append(into, e)
}

// pinShard matches `<partition key> = <literal or parameter>`. The
// type rules mirror the planner's shard routing: a value whose type
// does not hash identically to the key column's representation after
// coercion declines the pin (the comparison could still match rows in
// other shards under cross-type equality).
func pinShard(t *storage.Table, idExpr, valExpr sql.Expr, ps *plan.Params) (int, bool) {
	id, ok := idExpr.(*sql.Ident)
	if !ok || !strings.EqualFold(id.Name, t.Schema().Cols[t.ShardKey()].Name) {
		return 0, false
	}
	if id.Qualifier != "" && !strings.EqualFold(id.Qualifier, t.Name()) {
		return 0, false
	}
	kt := t.Schema().Cols[t.ShardKey()].Type
	var v storage.Value
	switch l := valExpr.(type) {
	case *sql.IntLit:
		if kt != storage.TypeInt64 && kt != storage.TypeFloat64 {
			return 0, false
		}
		v = storage.Int64(l.V)
	case *sql.FloatLit:
		if kt != storage.TypeFloat64 {
			return 0, false
		}
		v = storage.Float64(l.V)
	case *sql.StringLit:
		if kt != storage.TypeString {
			return 0, false
		}
		v = storage.Str(l.V)
	case *sql.BoolLit:
		if kt != storage.TypeBool {
			return 0, false
		}
		v = storage.Bool(l.V)
	case *sql.Param:
		if ps == nil || l.N < 1 || l.N > len(ps.Types) {
			return 0, false
		}
		av, ok := ps.Slot.Arg(l.N)
		if !ok || av.Null {
			// `key = NULL` matches nothing; all-shards is still correct
			// and the statement is a no-op either way.
			return 0, false
		}
		switch ps.Types[l.N-1] {
		case storage.TypeInt64:
			if kt != storage.TypeInt64 && kt != storage.TypeFloat64 {
				return 0, false
			}
		case storage.TypeFloat64:
			if kt != storage.TypeFloat64 {
				return 0, false
			}
		case storage.TypeString:
			if kt != storage.TypeString {
				return 0, false
			}
		case storage.TypeBool:
			if kt != storage.TypeBool {
				return 0, false
			}
		default:
			return 0, false
		}
		v = av
	default:
		return 0, false
	}
	sh, err := t.ShardOf(v)
	if err != nil {
		return 0, false
	}
	return sh, true
}

// updatesShardKey reports whether any SET assignment targets the
// partition key column.
func updatesShardKey(t *storage.Table, set []sql.Assignment) bool {
	for _, as := range set {
		if t.Schema().IndexOf(as.Column) == t.ShardKey() {
			return true
		}
	}
	return false
}

// matchShardRows is matchRows confined to one shard: the WHERE is
// evaluated over the shard's local rows and the returned indexes are
// shard-local (valid for UpdateShardInPlace / DeleteShardWhere), along
// with the batch they index into. The caller must hold the shard's
// statement lock across match and mutation.
func (db *DB) matchShardRows(t *storage.Table, shard int, where sql.Expr, ps *plan.Params) ([]int, *storage.Batch, error) {
	data := t.ShardBatch(shard)
	n := data.Len()
	if where == nil { // unreachable on the pruned path; kept total
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx, data, nil
	}
	sc := plan.NewScope(t.Name(), t.Schema())
	pred, err := plan.BindExprParams(where, sc, db.funcs, ps)
	if err != nil {
		return nil, nil, err
	}
	if pred.Type() != storage.TypeBool {
		return nil, nil, fmt.Errorf("engine: WHERE must be boolean, got %s", pred.Type())
	}
	var idx []int
	for i := 0; i < n; i++ {
		ok, err := expr.EvalBool(pred, expr.Row{Batch: data, Idx: i})
		if err != nil {
			return nil, nil, err
		}
		if ok {
			idx = append(idx, i)
		}
	}
	return idx, data, nil
}

// execUpdateShard is execUpdate confined to one locked shard.
func (db *DB) execUpdateShard(s *sql.UpdateStmt, ps *plan.Params, t *storage.Table, shard int) (Result, error) {
	schema := t.Schema()
	idx, data, err := db.matchShardRows(t, shard, s.Where, ps)
	if err != nil {
		return Result{}, err
	}
	if len(idx) == 0 {
		return Result{}, nil
	}
	sc := plan.NewScope(t.Name(), schema)
	type colUpdate struct {
		col  int
		vals []storage.Value
	}
	updates := make([]colUpdate, 0, len(s.Set))
	for _, as := range s.Set {
		j := schema.IndexOf(as.Column)
		if j < 0 {
			return Result{}, fmt.Errorf("engine: table %s has no column %q", s.Table, as.Column)
		}
		bound, err := plan.BindExprParams(as.E, sc, db.funcs, ps)
		if err != nil {
			return Result{}, err
		}
		vals := make([]storage.Value, len(idx))
		for k, i := range idx {
			v, err := bound.Eval(expr.Row{Batch: data, Idx: i})
			if err != nil {
				return Result{}, err
			}
			if v.Null && schema.Cols[j].NotNull {
				return Result{}, fmt.Errorf("engine: NOT NULL constraint violated on %s.%s", s.Table, as.Column)
			}
			cv, err := storage.Coerce(v, schema.Cols[j].Type)
			if err != nil {
				return Result{}, err
			}
			vals[k] = cv
		}
		updates = append(updates, colUpdate{col: j, vals: vals})
	}
	db.noteWrite(t)
	for _, u := range updates {
		if err := t.UpdateShardInPlace(shard, idx, u.col, u.vals); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: len(idx)}, nil
}

// execDeleteShard is execDelete confined to one locked shard.
func (db *DB) execDeleteShard(s *sql.DeleteStmt, ps *plan.Params, t *storage.Table, shard int) (Result, error) {
	idx, _, err := db.matchShardRows(t, shard, s.Where, ps)
	if err != nil {
		return Result{}, err
	}
	if len(idx) == 0 {
		return Result{}, nil
	}
	db.noteWrite(t)
	t.DeleteShardWhere(shard, idx)
	return Result{RowsAffected: len(idx)}, nil
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
