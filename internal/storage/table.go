package storage

import (
	"fmt"
	"sort"
	"sync"
)

// ShardedTable is an in-memory columnar table hash-partitioned into N
// independent shards. Each shard owns its column set, mutation
// counter, copy-on-write bookkeeping and statement-scope write lock,
// so writers on disjoint shards never touch shared state — the
// single-node analogue of Vertica's segmented projections, and the
// seam a future multi-node layer scatters across. An unpartitioned
// table is simply the one-shard case; Table is an alias, and the
// whole type sits behind the TableData interface next to Snapshot.
//
// Rows are routed to shards by FNV-1a hash of the partition key
// column (see HashValue), the same hash the vertex runtime's batching
// uses, so table shards and superstep partitions can align. The
// logical row order of a sharded table is shard-major: shard 0's rows
// first, then shard 1's, each in insertion order. UpdateInPlace's
// global row indexes address that concatenated order; the shard-local
// mutators (UpdateShardInPlace, DeleteShardWhere) address one shard.
//
// The Update-vs-Replace optimization from the paper is exposed as
// UpdateInPlace (cheap for few rows) and Replace (swap in a rebuilt
// column set, cheap for many rows). Snapshot produces the immutable
// copy-on-write views the MVCC layer hands to readers, assembled
// shard by shard.
type ShardedTable struct {
	name   string
	schema Schema
	// keyCol is the partition key column index; -1 when the table has a
	// single shard and no declared key.
	keyCol int
	shards []*shard

	// meta guards the mutable non-data metadata (sortKey) and the
	// cached cross-shard concatenation.
	meta    sync.RWMutex
	sortKey []int
	// concat caches the shard-major concatenation Data() returns for
	// multi-shard tables, keyed by the summed shard versions.
	concat        *Batch
	concatVersion uint64
}

// Table is the catalog's table type. Every table is a ShardedTable —
// an unpartitioned one has exactly one shard.
type Table = ShardedTable

// shard is one horizontal partition: a private column set with its own
// version counter, per-column copy-on-write flags, frozen-view cache
// and statement-scope write lock.
type shard struct {
	// mu guards the fields below for individual storage operations.
	mu   sync.RWMutex
	cols []Column
	// version counts this shard's mutations. The table-level version is
	// the sum over shards; since shard versions never decrease, equal
	// sums imply unchanged contents.
	version uint64
	// shared marks, per column, that the current value array is
	// referenced by at least one frozen view. In-place mutators detach
	// — copy — only the columns they touch before writing (appends
	// never need to: they only write past every view's clamped length).
	shared []bool
	// frozen caches the view taken at frozenVersion so re-snapshotting
	// an unchanged shard is O(1).
	frozen        *ShardView
	frozenVersion uint64
	// stmtMu is the statement-scope write lock. The engine's sharded
	// write fast path holds it for a whole statement (via LockShards)
	// while taking only the shared engine latch; freezing a view takes
	// it briefly, so a reader pinning a snapshot mid-statement sees the
	// shard either wholly before or wholly after that statement —
	// whole-shard atomicity. Lock order: stmtMu before mu.
	stmtMu sync.Mutex
}

func newShard(schema Schema) *shard {
	sh := &shard{cols: make([]Column, schema.Len()), shared: make([]bool, schema.Len())}
	for i, c := range schema.Cols {
		sh.cols[i] = NewColumn(c.Type, 0)
	}
	return sh
}

// rows returns the shard's row count. Callers hold sh.mu.
func (sh *shard) rows() int {
	if len(sh.cols) == 0 {
		return 0
	}
	return sh.cols[0].Len()
}

// NewTable creates an empty single-shard table with the given schema.
func NewTable(name string, schema Schema) *Table {
	return NewShardedTable(name, schema, -1, 1)
}

// NewShardedTable creates an empty table hash-partitioned on column
// keyCol into n shards. n < 1 is clamped to 1; a multi-shard table
// requires a valid key column (the engine validates before calling).
func NewShardedTable(name string, schema Schema, keyCol, n int) *ShardedTable {
	if n < 1 {
		n = 1
	}
	if keyCol < 0 || keyCol >= schema.Len() {
		if n > 1 {
			panic(fmt.Sprintf("storage: sharded table %s needs a valid partition column (got %d)", name, keyCol))
		}
		keyCol = -1
	}
	t := &ShardedTable{name: name, schema: schema, keyCol: keyCol, shards: make([]*shard, n)}
	for i := range t.shards {
		t.shards[i] = newShard(schema)
	}
	return t
}

// Name returns the table name.
func (t *ShardedTable) Name() string { return t.name }

// Schema returns the table schema.
func (t *ShardedTable) Schema() Schema { return t.schema }

// NumShards returns the number of hash partitions (1 for an
// unpartitioned table).
func (t *ShardedTable) NumShards() int { return len(t.shards) }

// ShardKey returns the partition key column index, or -1 when the
// table is unpartitioned.
func (t *ShardedTable) ShardKey() int { return t.keyCol }

// Version returns the table's mutation counter: the sum of the shard
// counters. Each shard counter increments on every content-changing
// operation and never decreases, so two equal versions imply unchanged
// contents.
func (t *ShardedTable) Version() uint64 {
	var sum uint64
	for _, sh := range t.shards {
		sh.mu.RLock()
		sum += sh.version
		sh.mu.RUnlock()
	}
	return sum
}

// SortKey returns the declared sort order (column indexes), if any.
func (t *ShardedTable) SortKey() []int {
	t.meta.RLock()
	defer t.meta.RUnlock()
	return append([]int(nil), t.sortKey...)
}

// SetSortKey declares the sort order of the table's data. It is the
// caller's responsibility that the data actually is sorted (the engine
// sorts on load for declared projections). On a multi-shard table the
// order is per shard.
func (t *ShardedTable) SetSortKey(cols []int) {
	t.meta.Lock()
	t.sortKey = append([]int(nil), cols...)
	t.meta.Unlock()
	for _, sh := range t.shards {
		sh.mu.Lock()
		sh.frozen = nil // the cached view feeds snapshots carrying the old sort key
		sh.mu.Unlock()
	}
}

// NumRows returns the current row count across all shards.
func (t *ShardedTable) NumRows() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		n += sh.rows()
		sh.mu.RUnlock()
	}
	return n
}

// ShardRows returns the row count of shard i.
func (t *ShardedTable) ShardRows(i int) int {
	sh := t.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.rows()
}

// ShardVersion returns the mutation counter of shard i. The rollback
// path compares it against a staged view's version to skip restoring
// shards the transaction never actually changed.
func (t *ShardedTable) ShardVersion(i int) uint64 {
	sh := t.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.version
}

// ShardBatch returns shard i's contents as a batch sharing the shard's
// column storage. Callers must treat it as read-only and follow the
// engine's latch discipline (latch-free readers use Snapshot instead).
func (t *ShardedTable) ShardBatch(i int) *Batch {
	sh := t.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return &Batch{Schema: t.schema, Cols: append([]Column(nil), sh.cols...)}
}

// shardForRow routes a row to its shard by hashing the partition key
// value, coerced to the key column type so literals and stored values
// agree. Unroutable values (coercion failures surface later as append
// errors) land in shard 0.
func (t *ShardedTable) shardForRow(vals []Value) int {
	if len(t.shards) == 1 {
		return 0
	}
	cv, err := Coerce(vals[t.keyCol], t.schema.Cols[t.keyCol].Type)
	if err != nil {
		return 0
	}
	return int(HashValue(cv) % uint64(len(t.shards)))
}

// ShardOf returns the shard a row with the given partition key value
// belongs to. The error is non-nil when the value cannot be coerced to
// the key column type (callers routing reads must then scan all
// shards).
func (t *ShardedTable) ShardOf(key Value) (int, error) {
	if len(t.shards) == 1 {
		return 0, nil
	}
	cv, err := Coerce(key, t.schema.Cols[t.keyCol].Type)
	if err != nil {
		return 0, err
	}
	return int(HashValue(cv) % uint64(len(t.shards))), nil
}

// checkRow validates arity and NOT NULL constraints for one row.
func (t *ShardedTable) checkRow(vals []Value) error {
	if len(vals) != t.schema.Len() {
		return fmt.Errorf("storage: table %s has %d columns, row has %d values", t.name, t.schema.Len(), len(vals))
	}
	for j, v := range vals {
		if t.schema.Cols[j].NotNull && v.Null {
			return fmt.Errorf("storage: NOT NULL constraint violated on %s.%s", t.name, t.schema.Cols[j].Name)
		}
	}
	return nil
}

// appendRowLocked appends one validated row to the shard. Callers hold
// sh.mu. Every value is coerced before any column grows, so a failed
// cast leaves the shard untouched. Appends need no copy-on-write:
// frozen views clamp their value slices to the pre-append length and
// own their null bitmaps.
func (t *ShardedTable) appendRowLocked(sh *shard, vals []Value) error {
	coerced := make([]Value, len(vals))
	for j, v := range vals {
		cv, err := Coerce(v, t.schema.Cols[j].Type)
		if err != nil {
			return fmt.Errorf("storage: %s.%s: %w", t.name, t.schema.Cols[j].Name, err)
		}
		coerced[j] = cv
	}
	for j, v := range coerced {
		_ = sh.cols[j].Append(v) // coerced above: Append cannot fail
	}
	sh.version++
	sh.frozen = nil
	return nil
}

// AppendRow appends one row, enforcing NOT NULL constraints and
// routing it to its hash shard.
func (t *ShardedTable) AppendRow(vals ...Value) error {
	if err := t.checkRow(vals); err != nil {
		return err
	}
	sh := t.shards[t.shardForRow(vals)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return t.appendRowLocked(sh, vals)
}

// AppendBatch appends all rows of the batch, routing each row to its
// shard. Rows land in their shards in batch order, with the same
// placement as AppendRow. The whole batch is NOT NULL-checked and
// coerced before any shard changes, so a failed append leaves the
// table untouched; each shard then takes its rows as whole columns.
func (t *ShardedTable) AppendBatch(b *Batch) error {
	if len(b.Cols) != t.schema.Len() {
		return fmt.Errorf("storage: table %s has %d columns, batch has %d", t.name, t.schema.Len(), len(b.Cols))
	}
	for j, c := range b.Cols {
		def := t.schema.Cols[j]
		if def.NotNull && anyNull(c) {
			return fmt.Errorf("storage: NOT NULL constraint violated on %s.%s", t.name, def.Name)
		}
	}
	cols := make([]Column, len(b.Cols))
	for j, c := range b.Cols {
		cc, err := coerceColumn(c, t.schema.Cols[j].Type)
		if err != nil {
			return fmt.Errorf("storage: %s.%s: %w", t.name, t.schema.Cols[j].Name, err)
		}
		cols[j] = cc
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	if len(t.shards) == 1 {
		t.appendShard(t.shards[0], cols)
		return nil
	}
	for s, rows := range t.shardAssignment(cols[t.keyCol]) {
		switch len(rows) {
		case 0:
		case n:
			t.appendShard(t.shards[s], cols)
		default:
			part := make([]Column, len(cols))
			for j, c := range cols {
				part[j] = c.Gather(rows)
			}
			t.appendShard(t.shards[s], part)
		}
	}
	return nil
}

// appendShard appends conformed columns (schema-typed, constraints
// checked) to one shard.
func (t *ShardedTable) appendShard(sh *shard, cols []Column) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for j, c := range cols {
		appendColumn(sh.cols[j], c)
	}
	sh.version++
	sh.frozen = nil
}

// anyNull reports whether any row of c is NULL.
func anyNull(c Column) bool {
	switch c.(type) {
	case *Int64Column, *Float64Column, *StringColumn, *BoolColumn:
		return NullsOf(c).Any()
	}
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			return true
		}
	}
	return false
}

// Data returns the table contents as one batch in shard-major row
// order. For a single-shard table the batch shares the table's column
// storage (read-only by convention, under the engine's statement-level
// serialization); for a multi-shard table it is a concatenated copy,
// cached until any shard mutates.
func (t *ShardedTable) Data() *Batch {
	if len(t.shards) == 1 {
		sh := t.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return &Batch{Schema: t.schema, Cols: append([]Column(nil), sh.cols...)}
	}
	version := t.Version()
	t.meta.RLock()
	if t.concat != nil && t.concatVersion == version {
		b := t.concat
		t.meta.RUnlock()
		return b
	}
	t.meta.RUnlock()
	parts := make([][]Column, len(t.shards))
	for i, sh := range t.shards {
		sh.mu.RLock()
		parts[i] = append([]Column(nil), sh.cols...)
		sh.mu.RUnlock()
	}
	cols := make([]Column, t.schema.Len())
	for j := range cols {
		colParts := make([]Column, len(parts))
		for i := range parts {
			colParts[i] = parts[i][j]
		}
		cols[j] = concatColumns(colParts)
	}
	b := &Batch{Schema: t.schema, Cols: cols}
	t.meta.Lock()
	t.concat, t.concatVersion = b, version
	t.meta.Unlock()
	return b
}

// Column returns column i of the shard-major concatenation (shared
// storage for single-shard tables, read-only by convention).
func (t *ShardedTable) Column(i int) Column {
	if len(t.shards) == 1 {
		sh := t.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.cols[i]
	}
	return t.Data().Cols[i]
}

// concatColumns concatenates typed columns with bulk copies; the null
// bitmap is only materialized when a part actually has NULL rows.
func concatColumns(parts []Column) Column {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	out := NewColumn(parts[0].Type(), total)
	for _, p := range parts {
		appendColumn(out, p)
	}
	return out
}

// SnapshotShard freezes shard i's current contents as an immutable
// view. The view's value arrays share the shard's backing storage with
// capacity clamped to the frozen length — later appends either write
// past every view's reach or reallocate — while the null bitmaps are
// copied (appends mutate their trailing word in place). In-place
// updates copy-on-write the columns they touch first, so the view's
// contents never change. The view for a given shard version is
// cached, and freezing waits on the shard's statement-scope write lock
// so a mid-statement reader sees the shard wholly before or wholly
// after the statement.
func (t *ShardedTable) SnapshotShard(i int) *ShardView {
	sh := t.shards[i]
	sh.stmtMu.Lock()
	defer sh.stmtMu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return t.freezeShardLocked(sh)
}

func (t *ShardedTable) freezeShardLocked(sh *shard) *ShardView {
	if sh.frozen != nil && sh.frozenVersion == sh.version {
		return sh.frozen
	}
	cols := make([]Column, len(sh.cols))
	for j, c := range sh.cols {
		cols[j] = freezeColumn(c)
		sh.shared[j] = true
	}
	v := &ShardView{cols: cols, version: sh.version}
	sh.frozen, sh.frozenVersion = v, sh.version
	return v
}

// Snapshot freezes the table's current contents as an immutable view,
// one frozen ShardView per shard. Re-snapshotting an unchanged table
// is O(shards) cache hits. Shards are frozen one at a time, each
// waiting on that shard's statement-scope write lock, so concurrent
// disjoint-shard writers delay the snapshot only on the shards they
// are actually writing — whole-shard atomicity, not whole-table.
func (t *ShardedTable) Snapshot() *Snapshot {
	views := make([]*ShardView, len(t.shards))
	for i := range t.shards {
		views[i] = t.SnapshotShard(i)
	}
	t.meta.RLock()
	sortKey := append([]int(nil), t.sortKey...)
	t.meta.RUnlock()
	return &Snapshot{
		name:    t.name,
		schema:  t.schema,
		keyCol:  t.keyCol,
		sortKey: sortKey,
		views:   views,
	}
}

// freezeColumn returns a read-only view of the column's current rows
// that stays valid while the original keeps appending: the value
// slice header is capped at the current length (appends to the
// original grow past the cap or reallocate, never into the view) and
// the null bitmap is copied (its trailing word mutates on append).
func freezeColumn(c Column) Column {
	switch col := c.(type) {
	case *Int64Column:
		n := len(col.vals)
		return &Int64Column{vals: col.vals[:n:n], nulls: col.nulls.Clone()}
	case *Float64Column:
		n := len(col.vals)
		return &Float64Column{vals: col.vals[:n:n], nulls: col.nulls.Clone()}
	case *StringColumn:
		n := len(col.vals)
		return &StringColumn{vals: col.vals[:n:n], nulls: col.nulls.Clone()}
	case *BoolColumn:
		n := len(col.vals)
		return &BoolColumn{vals: col.vals[:n:n], nulls: col.nulls.Clone()}
	default:
		// Unknown column type: fall back to a full copy.
		return c.Slice(0, c.Len())
	}
}

// RestoreShard swaps a frozen view's column set back into shard i —
// the per-shard MVCC rollback path (version swap instead of a
// deep-copy undo image). The view may still be pinned by readers, so
// the shard must NOT adopt the view's own Column objects (appends
// mutate a column object in place, and appends skip copy-on-write by
// design): it installs re-frozen copies, whose capped value slices
// force the first append to reallocate and whose null bitmaps are
// private. The shared flags still make in-place updates copy.
func (t *ShardedTable) RestoreShard(i int, v *ShardView) {
	sh := t.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.cols = make([]Column, len(v.cols))
	for j, c := range v.cols {
		sh.cols[j] = freezeColumn(c)
		sh.shared[j] = true
	}
	sh.version++
	sh.frozen = nil
}

// RestoreSnapshot swaps the snapshot's column sets back into the table
// shard by shard — the whole-table MVCC rollback path. The snapshot
// must come from a table with the same shape (schema and shard
// layout); the transaction layer checks before calling.
func (t *ShardedTable) RestoreSnapshot(s *Snapshot) {
	for i, v := range s.views {
		t.RestoreShard(i, v)
	}
	t.meta.Lock()
	t.sortKey = append([]int(nil), s.sortKey...)
	t.meta.Unlock()
}

// Replace swaps in an entirely new column set, re-partitioning the
// rows across shards. This is the "replace" arm of the paper's
// Update-vs-Replace optimization: the coordinator builds the
// next-superstep vertex/message table by a left join and swaps it in,
// instead of updating tuples in place. Single-shard tables adopt the
// batch's columns directly (O(columns)); multi-shard tables gather
// each shard's rows (O(rows), the price of keeping the partitioning
// invariant — Vertica pays the same on segmented load).
func (t *ShardedTable) Replace(b *Batch) error {
	if len(b.Cols) != t.schema.Len() {
		return fmt.Errorf("storage: replace arity mismatch on %s", t.name)
	}
	for j, c := range b.Cols {
		if c.Type() != t.schema.Cols[j].Type {
			return fmt.Errorf("storage: replace type mismatch on %s.%s: %s vs %s",
				t.name, t.schema.Cols[j].Name, c.Type(), t.schema.Cols[j].Type)
		}
	}
	if len(t.shards) == 1 {
		sh := t.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.cols = append([]Column(nil), b.Cols...)
		// The batch's columns may share storage with whatever produced
		// them (an operator can pass a snapshot's column through
		// untouched), so treat them as shared until the first in-place
		// write copies.
		for j := range sh.shared {
			sh.shared[j] = true
		}
		sh.version++
		sh.frozen = nil
		return nil
	}
	for s, rows := range t.shardAssignment(b.Cols[t.keyCol]) {
		sh := t.shards[s]
		sh.mu.Lock()
		for j, c := range b.Cols {
			sh.cols[j] = c.Gather(rows)
			sh.shared[j] = false // Gather built fresh columns
		}
		sh.version++
		sh.frozen = nil
		sh.mu.Unlock()
	}
	return nil
}

// shardAssignment returns, per shard, the row indexes of the partition
// key column routed to it, using the same hash as AppendRow.
func (t *ShardedTable) shardAssignment(key Column) [][]int {
	n := len(t.shards)
	out := make([][]int, n)
	if ic, ok := key.(*Int64Column); ok && (ic.nulls == nil || !ic.nulls.Any()) {
		return PartitionInt64(ic.vals, n)
	}
	for i := 0; i < key.Len(); i++ {
		cv, err := Coerce(key.Value(i), t.schema.Cols[t.keyCol].Type)
		s := 0
		if err == nil {
			s = int(HashValue(cv) % uint64(n))
		}
		out[s] = append(out[s], i)
	}
	return out
}

// shardOffsets returns each shard's starting global row index plus the
// total row count, under no lock — callers mutating by global index
// already hold the engine's exclusive latch or the shard write locks.
func (t *ShardedTable) shardOffsets() ([]int, int) {
	offs := make([]int, len(t.shards))
	n := 0
	for i := range t.shards {
		offs[i] = n
		n += t.ShardRows(i)
	}
	return offs, n
}

// locateRow maps a global (shard-major) row index to its shard and
// local index given the shard offsets.
func locateRow(offs []int, g int) (int, int) {
	s := sort.Search(len(offs), func(i int) bool { return offs[i] > g }) - 1
	return s, g - offs[s]
}

// UpdateInPlace sets cols[colIdx] = vals[k] for each global row index
// in rowIdx. This is the "update" arm of Update-vs-Replace, used when
// the number of changed tuples is below the threshold. Each touched
// shard takes its rows through UpdateShardInPlace.
func (t *ShardedTable) UpdateInPlace(rowIdx []int, colIdx int, vals []Value) error {
	if len(rowIdx) != len(vals) {
		return fmt.Errorf("storage: update arity mismatch on %s", t.name)
	}
	if len(t.shards) == 1 {
		return t.UpdateShardInPlace(0, rowIdx, colIdx, vals)
	}
	offs, total := t.shardOffsets()
	perShard := make([][]int, len(t.shards)) // local row indexes
	perShardVal := make([][]Value, len(t.shards))
	for k, g := range rowIdx {
		if g < 0 || g >= total {
			return fmt.Errorf("storage: set index %d out of range (%d rows)", g, total)
		}
		s, local := locateRow(offs, g)
		perShard[s] = append(perShard[s], local)
		perShardVal[s] = append(perShardVal[s], vals[k])
	}
	for s, locals := range perShard {
		if err := t.UpdateShardInPlace(s, locals, colIdx, perShardVal[s]); err != nil {
			return err
		}
	}
	return nil
}

// UpdateShardInPlace sets cols[colIdx] = vals[k] for each shard-local
// row index in localIdx of shard s. Only the touched column is detached
// (copied) when a snapshot still shares it — column-granular
// copy-on-write. The engine's UPDATE calls it per matched shard, under
// that shard's statement lock, so a point UPDATE whose WHERE pins the
// partition key touches (and locks) only the owning shard while the
// others stay open to concurrent writers.
func (t *ShardedTable) UpdateShardInPlace(s int, localIdx []int, colIdx int, vals []Value) error {
	if len(localIdx) != len(vals) {
		return fmt.Errorf("storage: update arity mismatch on %s", t.name)
	}
	if len(localIdx) == 0 {
		return nil
	}
	sh := t.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := sh.rows()
	for _, local := range localIdx {
		if local < 0 || local >= n {
			return fmt.Errorf("storage: set index %d out of range (shard %d has %d rows)", local, s, n)
		}
	}
	if sh.shared[colIdx] {
		c := sh.cols[colIdx]
		sh.cols[colIdx] = c.Slice(0, c.Len())
		sh.shared[colIdx] = false
	}
	sh.version++
	sh.frozen = nil
	for k, local := range localIdx {
		if err := SetValue(sh.cols[colIdx], local, vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// DeleteShardWhere removes the rows at the given shard-local indexes of
// shard s by rebuilding the shard's columns without them.
func (t *ShardedTable) DeleteShardWhere(s int, localIdx []int) {
	if len(localIdx) == 0 {
		return
	}
	dead := make(map[int]bool, len(localIdx))
	for _, i := range localIdx {
		dead[i] = true
	}
	sh := t.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := sh.rows()
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !dead[i] {
			keep = append(keep, i)
		}
	}
	for j, c := range sh.cols {
		sh.cols[j] = c.Gather(keep)
		sh.shared[j] = false // Gather built fresh columns
	}
	sh.version++
	sh.frozen = nil
}

// Truncate removes all rows from every shard.
func (t *ShardedTable) Truncate() {
	for _, sh := range t.shards {
		sh.mu.Lock()
		for j, c := range t.schema.Cols {
			sh.cols[j] = NewColumn(c.Type, 0)
			sh.shared[j] = false // fresh empty columns
		}
		sh.version++
		sh.frozen = nil
		sh.mu.Unlock()
	}
}

// AllShards returns the full shard index list [0..N) — the lock set
// for statements whose shard footprint is unknown.
func (t *ShardedTable) AllShards() []int {
	idx := make([]int, len(t.shards))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// LockShards takes the statement-scope write locks of the given shards
// in ascending order (deduplicated), so concurrent statements with
// overlapping footprints never deadlock. The engine's sharded write
// fast path brackets each auto-commit statement with
// LockShards/UnlockShards while holding only the shared engine latch;
// writers on disjoint shards proceed in parallel.
func (t *ShardedTable) LockShards(idx []int) {
	for _, s := range sortedUnique(idx) {
		t.shards[s].stmtMu.Lock()
	}
}

// UnlockShards releases the statement-scope write locks taken by
// LockShards with the same index set.
func (t *ShardedTable) UnlockShards(idx []int) {
	for _, s := range sortedUnique(idx) {
		t.shards[s].stmtMu.Unlock()
	}
}

func sortedUnique(idx []int) []int {
	out := append([]int(nil), idx...)
	sort.Ints(out)
	j := 0
	for i, s := range out {
		if i == 0 || s != out[j-1] {
			out[j] = s
			j++
		}
	}
	return out[:j]
}

// SetValue sets row i of column c to v (coerced to the column type).
// It is a free function rather than a Column method so the read-mostly
// Column interface stays minimal.
func SetValue(c Column, i int, v Value) error {
	if i < 0 || i >= c.Len() {
		return fmt.Errorf("storage: set index %d out of range (%d rows)", i, c.Len())
	}
	cv, err := Coerce(v, c.Type())
	if err != nil {
		return err
	}
	switch col := c.(type) {
	case *Int64Column:
		if cv.Null {
			if col.nulls == nil {
				col.nulls = NewBitmap(len(col.vals))
			}
			col.nulls.Set(i)
		} else {
			col.vals[i] = cv.I
			col.nulls.Clear(i)
		}
	case *Float64Column:
		if cv.Null {
			if col.nulls == nil {
				col.nulls = NewBitmap(len(col.vals))
			}
			col.nulls.Set(i)
		} else {
			col.vals[i] = cv.F
			col.nulls.Clear(i)
		}
	case *StringColumn:
		if cv.Null {
			if col.nulls == nil {
				col.nulls = NewBitmap(len(col.vals))
			}
			col.nulls.Set(i)
		} else {
			col.vals[i] = cv.S
			col.nulls.Clear(i)
		}
	case *BoolColumn:
		if cv.Null {
			if col.nulls == nil {
				col.nulls = NewBitmap(len(col.vals))
			}
			col.nulls.Set(i)
		} else {
			col.vals[i] = cv.I != 0
			col.nulls.Clear(i)
		}
	default:
		return fmt.Errorf("storage: SetValue on unknown column type %T", c)
	}
	return nil
}
