package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/storage"
)

// JoinType enumerates the join semantics the executor supports.
type JoinType uint8

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	CrossJoin
)

// joinSchema concatenates the schemas of the two join sides.
func joinSchema(l, r storage.Schema) storage.Schema {
	cols := make([]storage.ColumnDef, 0, l.Len()+r.Len())
	cols = append(cols, l.Cols...)
	cols = append(cols, r.Cols...)
	return storage.NewSchema(cols...)
}

// HashJoin is an equi-join: it builds a hash table on the right input's
// key columns and probes with the left input. LeftJoin emits unmatched
// left rows padded with NULLs. NULL keys never match, per SQL.
type HashJoin struct {
	Left, Right Operator
	// LeftKeys/RightKeys are column indexes into the respective schemas.
	LeftKeys, RightKeys []int
	Type                JoinType // InnerJoin or LeftJoin
	// Residual, if non-nil, is evaluated over the combined row and must
	// be TRUE for the match to survive (non-equi conjuncts of ON).
	Residual expr.Expr
	// Workers caps probe-side parallelism. The hash table is built
	// once; probing splits the left input into contiguous morsels whose
	// match lists are concatenated in morsel order, so the output is
	// row-for-row identical to a serial probe. 0 or 1 probes serially.
	Workers int
	// Budget is the shared extra-worker budget (nil = unlimited).
	Budget *sched.Budget
	// Streaming makes Open build only the right side and pull the
	// probe (left) side batch by batch in Next — O(batch) probe memory
	// and true early exit for a LIMIT above the join, at the cost of
	// the vectorized fast path and the parallel probe. The planner
	// sets it on joins planned under a LIMIT. Row order is identical
	// to the materialized probe.
	Streaming bool
	// Mem is the statement memory grant (nil = unlimited). A build side
	// that outgrows it switches the join to the Grace partitioned path;
	// a probe side that outgrows it falls back to the streaming probe.
	// FS creates spill files (nil = the default temp-file filesystem).
	Mem *sched.MemBudget
	FS  storage.SpillFS

	out   storage.Schema
	table *joinTable // the generic build side
	// buildOffs holds the shard boundaries of rdata when the build side
	// is a whole-table scan of a sharded table keyed on its partition
	// column: buildOffs[s]..buildOffs[s+1] is shard s's index range.
	// The fast path then builds one hash map per shard concurrently —
	// no single global build map, no barrier between shard builds.
	buildOffs []int
	rdata     *storage.Batch
	ldata     *storage.Batch
	lside     probeSide // ldata readied for the generic probe
	lpos      int
	lopen     bool // Streaming: left operator is open
	ldone     bool // Streaming: left exhausted

	// fast holds the fully materialized result when the vectorized
	// single-int64-key path applies; fastPos tracks emission.
	fast    *storage.Batch
	fastPos int

	// slowOut holds the materialized result when the generic probe ran
	// in parallel (multi-key or residual joins); slowPos tracks
	// emission.
	slowOut []*storage.Batch
	slowPos int

	// grace is the K-way idx-merge over partition result runs when the
	// build side spilled; streamSpill marks the streaming-probe fallback
	// when only the probe side overflowed.
	grace       *graceState
	streamSpill bool
	mt          memTracker
	// lmt holds the drained probe side's reservation; a streaming probe
	// returns it once that buffered prefix has been probed.
	lmt memTracker

	stats OpStats
	// buildRows/probeRows split the join's input accounting between the
	// hash-table build (right) and the probe (left) side; EXPLAIN
	// ANALYZE reports them because the output row count alone says
	// nothing about which side dominated. Captured before tryFastPath
	// releases the drained inputs.
	buildRows atomic.Int64
	probeRows atomic.Int64
}

// OpStats implements Instrumented.
func (j *HashJoin) OpStats() *OpStats { return &j.stats }

// BuildProbeRows reports the build-side and probe-side input row counts
// of the latest execution.
func (j *HashJoin) BuildProbeRows() (build, probe int64) {
	return j.buildRows.Load(), j.probeRows.Load()
}

// Schema implements Operator.
func (j *HashJoin) Schema() storage.Schema {
	if j.out.Len() == 0 {
		j.out = joinSchema(j.Left.Schema(), j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *HashJoin) Open() error {
	t0 := j.stats.begin()
	err := j.open()
	j.stats.opened(t0)
	return err
}

func (j *HashJoin) open() error {
	if len(j.LeftKeys) != len(j.RightKeys) || len(j.LeftKeys) == 0 {
		return fmt.Errorf("exec: hash join requires matching non-empty key lists")
	}
	j.Schema()
	j.fast, j.fastPos = nil, 0
	j.slowOut, j.slowPos = nil, 0
	j.lopen, j.ldone = false, false
	j.grace, j.streamSpill = nil, false
	j.mt = memTracker{mem: j.Mem}
	j.lmt = memTracker{mem: j.Mem}
	j.buildRows.Store(0)
	j.probeRows.Store(0)
	rdata, rspill, err := j.drainAccounted(j.Right, &j.buildRows, &j.mt)
	if err != nil {
		return err
	}
	j.rdata = rdata
	if rspill {
		// The build side does not fit: Grace partitioned join. What is
		// buffered plus the rest of both streams goes to hash-partition
		// runs on disk, probed partition against partition.
		return j.openGrace()
	}
	j.buildOffs = j.shardBuildOffsets()
	if j.Streaming {
		j.buildTable()
		if err := j.Left.Open(); err != nil {
			return err
		}
		j.lopen = true
		j.ldata, j.lpos = nil, 0
		return nil
	}
	ldata, lspill, err := j.drainAccounted(j.Left, &j.probeRows, &j.lmt)
	if err != nil {
		return err
	}
	if lspill {
		// The build fits but the probe side does not. Probe the buffered
		// prefix, then stream the rest of the still-open left input batch
		// by batch at O(batch) memory — the streaming probe visits left
		// rows in input order, which IS the materialized probe's output
		// order, so the result is byte-identical and no row is read twice.
		j.buildTable()
		j.lopen = true
		j.streamSpill = true
		j.setProbe(ldata)
		return nil
	}
	j.ldata = ldata
	j.lpos = 0
	if j.tryFastPath() {
		return nil
	}
	j.buildTable()
	j.setProbe(ldata)
	if w := splitParts(j.ldata.Len(), j.Workers); w > 1 {
		return j.probeSlowParallel(w)
	}
	return nil
}

// drainAccounted pulls every batch from op, reserving each batch's
// footprint against the grant through mt. A denied reservation stops
// the drain: the partial result is returned with spill=true and op
// still open, so the caller can stream the remainder straight to disk.
// On a full drain (or error) op is closed, matching Drain.
func (j *HashJoin) drainAccounted(op Operator, rows *atomic.Int64, mt *memTracker) (*storage.Batch, bool, error) {
	if err := op.Open(); err != nil {
		return nil, false, err
	}
	out := storage.NewBatch(op.Schema())
	for {
		b, err := op.Next()
		if err != nil {
			op.Close()
			return nil, false, err
		}
		if b == nil {
			break
		}
		rows.Add(int64(b.Len()))
		spill := !mt.reserve(storage.BatchBytes(b)) && out.Len() > 0
		if err := storage.Concat(out, b); err != nil {
			op.Close()
			return nil, false, err
		}
		if spill {
			return out, true, nil
		}
	}
	if err := op.Close(); err != nil {
		return nil, false, err
	}
	return out, false, nil
}

// shardBuildOffsets detects a shard-aligned build side: the right
// input is a whole-table scan of a multi-shard table and the single
// join key IS the partition key, so every row of the drained build
// side sits in the shard its key hashes to. It returns the shard
// boundaries within rdata (shard-major drain order), or nil when the
// build is not shard-aligned.
func (j *HashJoin) shardBuildOffsets() []int {
	if len(j.RightKeys) != 1 || j.Residual != nil {
		return nil
	}
	ts, ok := j.Right.(*TableScan)
	if !ok || ts.Shard != 0 || ts.parts > 1 {
		return nil
	}
	sh, ok := ts.Table.(storage.Sharded)
	if !ok || sh.NumShards() < 2 || sh.ShardKey() != j.RightKeys[0] {
		return nil
	}
	offs := make([]int, sh.NumShards()+1)
	for s := 0; s < sh.NumShards(); s++ {
		offs[s+1] = offs[s] + sh.ShardRows(s)
	}
	if offs[len(offs)-1] != j.rdata.Len() {
		return nil // shard layout moved under a live scan; fall back
	}
	return offs
}

// buildTable hashes the drained right side into the generic build
// table.
func (j *HashJoin) buildTable() {
	j.table = buildJoinTable(j.rdata, j.RightKeys, j.Workers, j.Budget)
}

// setProbe makes b the probe batch the generic probe reads from.
func (j *HashJoin) setProbe(b *storage.Batch) {
	j.ldata, j.lpos = b, 0
	j.setProbeSide(&j.lside, b, j.table)
}

// tryFastPath materializes the join result vectorized when both key
// lists are a single null-free INTEGER column and there is no residual
// predicate — the shape every graph-table join in this system has. It
// builds index lists and gathers whole columns instead of assembling
// rows one value at a time.
func (j *HashJoin) tryFastPath() bool {
	if len(j.LeftKeys) != 1 || j.Residual != nil {
		return false
	}
	lk, lok := j.ldata.Cols[j.LeftKeys[0]].(*storage.Int64Column)
	rk, rok := j.rdata.Cols[j.RightKeys[0]].(*storage.Int64Column)
	if !lok || !rok {
		return false
	}
	if storage.NullsOf(lk).Any() || storage.NullsOf(rk).Any() {
		return false
	}
	rvals := rk.Int64s()
	lvals := lk.Int64s()
	var probe func(lo, hi int) ([]int, []int)
	if offs := j.buildOffs; offs != nil {
		// Partitioned build: one hash map per shard, built concurrently
		// over that shard's contiguous slice of the drained build side.
		// The partition invariant (every row lives in the shard its key
		// hashes to) means a probe key can only match inside its owning
		// shard, so the per-shard maps need no merge — shard-local
		// builds, no global build barrier — and the match lists still
		// come out in ascending build order, byte-identical to the
		// single-map path.
		nShards := len(offs) - 1
		builtShards := make([]map[int64][]int32, nShards)
		sched.ForEach(j.Budget, nShards, j.Workers, func(s int) {
			m := make(map[int64][]int32, offs[s+1]-offs[s])
			for i := offs[s]; i < offs[s+1]; i++ {
				m[rvals[i]] = append(m[rvals[i]], int32(i))
			}
			builtShards[s] = m
		})
		probe = func(lo, hi int) ([]int, []int) {
			return probeFastShardRange(builtShards, lvals, lo, hi, j.Type)
		}
	} else {
		built := make(map[int64][]int32, len(rvals))
		for i, v := range rvals {
			built[v] = append(built[v], int32(i))
		}
		probe = func(lo, hi int) ([]int, []int) {
			return probeFastRange(built, lvals, lo, hi, j.Type)
		}
	}
	var leftIdx, rightIdx []int
	if w := splitParts(len(lvals), j.Workers); w > 1 {
		// Parallel probe: each worker probes one contiguous morsel of
		// the left input; the per-morsel match lists are concatenated
		// in morsel order, reproducing the serial output exactly.
		lefts := make([][]int, w)
		rights := make([][]int, w)
		sched.ForEach(j.Budget, w, w, func(m int) {
			lefts[m], rights[m] = probe(m*len(lvals)/w, (m+1)*len(lvals)/w)
		})
		total := 0
		for _, l := range lefts {
			total += len(l)
		}
		leftIdx = make([]int, 0, total)
		rightIdx = make([]int, 0, total)
		for m := range lefts {
			leftIdx = append(leftIdx, lefts[m]...)
			rightIdx = append(rightIdx, rights[m]...)
		}
	} else {
		leftIdx, rightIdx = probe(0, len(lvals))
	}
	cols := make([]storage.Column, j.out.Len())
	nl := len(j.ldata.Cols)
	// Materializing the output is a per-column gather; columns are
	// independent, so gather them on the worker budget too.
	sched.ForEach(j.Budget, j.out.Len(), j.Workers, func(k int) {
		if k < nl {
			cols[k] = j.ldata.Cols[k].Gather(leftIdx)
		} else {
			cols[k] = storage.GatherPad(j.rdata.Cols[k-nl], rightIdx)
		}
	})
	j.fast = &storage.Batch{Schema: j.out, Cols: cols}
	j.ldata, j.rdata = nil, nil
	return true
}

// probeFastRange probes rows [lo, hi) of the left key column against
// the build map, returning matched (left, right) index pairs; a right
// index of -1 marks a NULL-padded row of a left join.
func probeFastRange(built map[int64][]int32, lvals []int64, lo, hi int, jt JoinType) (leftIdx, rightIdx []int) {
	leftIdx = make([]int, 0, hi-lo)
	rightIdx = make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		matches := built[lvals[i]]
		if len(matches) == 0 {
			if jt == LeftJoin {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, -1)
			}
			continue
		}
		for _, ri := range matches {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, int(ri))
		}
	}
	return leftIdx, rightIdx
}

// probeFastShardRange is probeFastRange against a partitioned build:
// each probe key is routed to its owning shard's map by the same FNV
// hash that placed the build rows there.
func probeFastShardRange(builtShards []map[int64][]int32, lvals []int64, lo, hi int, jt JoinType) (leftIdx, rightIdx []int) {
	n := uint64(len(builtShards))
	leftIdx = make([]int, 0, hi-lo)
	rightIdx = make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		matches := builtShards[storage.HashInt64(lvals[i])%n][lvals[i]]
		if len(matches) == 0 {
			if jt == LeftJoin {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, -1)
			}
			continue
		}
		for _, ri := range matches {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, int(ri))
		}
	}
	return leftIdx, rightIdx
}

// keyHashes holds one batch's join-key hashes and NULL-key flags; the
// slices are reused from batch to batch.
type keyHashes struct {
	h    []uint64
	null []bool
}

// of hashes the key columns of every row of b.
func (kh *keyHashes) of(b *storage.Batch, keys []int) {
	n := b.Len()
	if cap(kh.h) < n {
		kh.h, kh.null = make([]uint64, n), make([]bool, n)
	}
	kh.h, kh.null = kh.h[:n], kh.null[:n]
	storage.HashKeys(b, keys, 0, n, kh.h, kh.null)
}

// route splits the hashed rows by their Grace partition at level.
// NULL-key rows go to partition 0 when keepNull is set (left-join rows,
// which come back NULL-padded) and are dropped otherwise.
func (kh *keyHashes) route(level int, keepNull bool) [spillParts][]int {
	var rows [spillParts][]int
	for i, h := range kh.h {
		k := 0
		if !kh.null[i] {
			k = gracePartOf(h, level)
		} else if !keepNull {
			continue
		}
		rows[k] = append(rows[k], i)
	}
	return rows
}

// joinTable is the generic build side: the row indexes of the build
// batch per key hash, in ascending build order, in one map or — after a
// parallel build — one map per hash partition (key hash modulo the
// partition count routes both build and lookup). NULL-key rows are left
// out; they never match.
type joinTable struct {
	rb    *storage.Batch
	keys  []int
	parts []map[uint64][]int32
}

func (t *joinTable) lookup(h uint64) []int32 {
	return t.parts[h%uint64(len(t.parts))][h]
}

// buildJoinTable hashes the key columns of rb. With workers > 1 the
// build is parallel in two stages: key hashes are computed over
// contiguous morsels, then one map per hash partition is built
// concurrently (each worker scans the hash array claiming the hashes
// that route to its partition — no locks, no merge). Match lists stay
// in ascending build order either way, so probes see identical lists.
func buildJoinTable(rb *storage.Batch, keys []int, workers int, budget *sched.Budget) *joinTable {
	n := rb.Len()
	hashes, nulls := make([]uint64, n), make([]bool, n)
	t := &joinTable{rb: rb, keys: keys}
	w := splitParts(n, workers)
	if w < 2 {
		storage.HashKeys(rb, keys, 0, n, hashes, nulls)
		m := make(map[uint64][]int32, n)
		for i, h := range hashes {
			if !nulls[i] {
				m[h] = append(m[h], int32(i))
			}
		}
		t.parts = []map[uint64][]int32{m}
		return t
	}
	sched.ForEach(budget, w, workers, func(m int) {
		lo, hi := m*n/w, (m+1)*n/w
		storage.HashKeys(rb, keys, lo, hi, hashes[lo:hi], nulls[lo:hi])
	})
	t.parts = make([]map[uint64][]int32, w)
	sched.ForEach(budget, w, workers, func(p int) {
		m := make(map[uint64][]int32, n/w+1)
		for i, h := range hashes {
			if !nulls[i] && h%uint64(w) == uint64(p) {
				m[h] = append(m[h], int32(i))
			}
		}
		t.parts[p] = m
	})
	return t
}

// probeSide is one probe batch readied for probeChunk: its key hashes
// and a typed key-equality check against the build batch (the
// hash-collision check).
type probeSide struct {
	b  *storage.Batch
	kh keyHashes
	eq func(l, r int) bool
}

func (j *HashJoin) setProbeSide(s *probeSide, b *storage.Batch, t *joinTable) {
	s.b = b
	s.kh.of(b, j.LeftKeys)
	s.eq = storage.KeysEqual(b, j.LeftKeys, t.rb, t.keys)
}

// probeChunk is the generic probe (several keys, a residual, or NULL
// keys): it probes left rows from lo of the probe side, up to hi or the
// left row that brings the output to storage.BatchSize rows. It
// collects (left, right) row-index pairs — each left row's matches in
// ascending build order, right index -1 marking a left join's NULL pad
// — applies the residual, and gathers the output columns once. It
// returns the output, the left row of each output row, and the next
// left row to probe.
func (j *HashJoin) probeChunk(s *probeSide, lo, hi int, t *joinTable) (*storage.Batch, []int, int, error) {
	lidx := make([]int, 0, storage.BatchSize)
	ridx := make([]int, 0, storage.BatchSize)
	i := lo
	for ; i < hi && len(lidx) < storage.BatchSize; i++ {
		n := len(lidx)
		if !s.kh.null[i] {
			for _, r := range t.lookup(s.kh.h[i]) {
				if s.eq(i, int(r)) {
					lidx = append(lidx, i)
					ridx = append(ridx, int(r))
				}
			}
		}
		if len(lidx) == n && j.Type == LeftJoin {
			lidx = append(lidx, i)
			ridx = append(ridx, -1)
		}
	}
	if j.Residual != nil {
		var err error
		if lidx, ridx, err = j.filterResidual(s.b, t.rb, lidx, ridx); err != nil {
			return nil, nil, i, err
		}
	}
	return gatherPairs(j.out, s.b, t.rb, lidx, ridx), lidx, i, nil
}

// filterResidual keeps the pairs whose residual is TRUE, evaluating it
// vectorized over the gathered candidate pairs (pads are not
// evaluated). Under a left join, a left row none of whose candidates
// survives gets its NULL pad.
func (j *HashJoin) filterResidual(lb, rb *storage.Batch, lidx, ridx []int) ([]int, []int, error) {
	var cl, cr []int
	for k, r := range ridx {
		if r >= 0 {
			cl = append(cl, lidx[k])
			cr = append(cr, r)
		}
	}
	pred, err := expr.EvalVector(j.Residual, gatherPairs(j.out, lb, rb, cl, cr))
	if err != nil {
		return nil, nil, err
	}
	keepL := make([]int, 0, len(lidx))
	keepR := make([]int, 0, len(lidx))
	c := 0 // position among the candidates
	for k := 0; k < len(lidx); {
		// Pairs k..e-1 belong to one left row.
		e, kept := k, false
		for ; e < len(lidx) && lidx[e] == lidx[k]; e++ {
			if ridx[e] < 0 {
				continue
			}
			if pred.Value(c).IsTrue() {
				keepL = append(keepL, lidx[e])
				keepR = append(keepR, ridx[e])
				kept = true
			}
			c++
		}
		if !kept && j.Type == LeftJoin {
			keepL = append(keepL, lidx[k])
			keepR = append(keepR, -1)
		}
		k = e
	}
	return keepL, keepR, nil
}

// gatherPairs materializes (left, right) index pairs as output rows; a
// right index of -1 yields NULL right columns.
func gatherPairs(out storage.Schema, lb, rb *storage.Batch, lidx, ridx []int) *storage.Batch {
	cols := make([]storage.Column, 0, len(lb.Cols)+len(rb.Cols))
	for _, c := range lb.Cols {
		cols = append(cols, c.Gather(lidx))
	}
	for _, c := range rb.Cols {
		cols = append(cols, storage.GatherPad(c, ridx))
	}
	return &storage.Batch{Schema: out, Cols: cols}
}

// probeSlowParallel runs the generic probe over w contiguous morsels of
// the left input concurrently. Each worker emits its own batch list;
// lists are concatenated in morsel order, so the output matches the
// serial probe row for row. The build table, drained inputs and
// expression trees are all read-only during the probe. Like the
// vectorized fast path, this materializes the whole join result in
// Open — an early-exiting consumer (LIMIT) no longer stops the probe
// partway, trading that for probe parallelism.
func (j *HashJoin) probeSlowParallel(w int) error {
	outs := make([][]*storage.Batch, w)
	errs := make([]error, w)
	n := j.ldata.Len()
	sched.ForEach(j.Budget, w, w, func(m int) {
		for lo, hi := m*n/w, (m+1)*n/w; lo < hi; {
			out, _, next, err := j.probeChunk(&j.lside, lo, hi, j.table)
			if err != nil {
				errs[m] = err
				return
			}
			if out.Len() > 0 {
				outs[m] = append(outs[m], out)
			}
			lo = next
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Non-nil even when empty: Next must serve the (empty) parallel
	// result rather than falling back to a second, serial probe.
	j.slowOut = make([]*storage.Batch, 0, len(outs))
	for _, batches := range outs {
		j.slowOut = append(j.slowOut, batches...)
	}
	j.slowPos = 0
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (*storage.Batch, error) {
	t0 := j.stats.begin()
	b, err := j.next()
	j.stats.record(t0, b)
	return b, err
}

func (j *HashJoin) next() (*storage.Batch, error) {
	if j.grace != nil {
		return j.graceNextBatch()
	}
	if j.fast != nil {
		return NextChunk(j.fast, &j.fastPos, j.fast.Len()), nil
	}
	if j.slowOut != nil {
		if j.slowPos >= len(j.slowOut) {
			return nil, nil
		}
		b := j.slowOut[j.slowPos]
		j.slowPos++
		return b, nil
	}
	streaming := j.Streaming || j.streamSpill
	for {
		if j.ldata == nil || j.lpos >= j.ldata.Len() {
			if !streaming || j.ldone {
				return nil, nil
			}
			b, err := j.Left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.ldone = true
				return nil, nil
			}
			j.lmt.releaseAll() // a buffered probe prefix is done
			j.probeRows.Add(int64(b.Len()))
			j.setProbe(b)
			continue
		}
		out, _, next, err := j.probeChunk(&j.lside, j.lpos, j.ldata.Len(), j.table)
		if err != nil {
			return nil, err
		}
		j.lpos = next
		if out.Len() > 0 {
			return out, nil
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.stats.closed()
	j.table = nil
	j.lside = probeSide{}
	j.rdata = nil
	j.ldata = nil
	j.fast = nil
	j.slowOut = nil
	if j.grace != nil {
		for _, r := range j.grace.runs {
			r.Close()
		}
		j.grace = nil
	}
	j.mt.releaseAll()
	j.lmt.releaseAll()
	if j.lopen {
		j.lopen = false
		return j.Left.Close()
	}
	return nil
}

// NestedLoopJoin handles cross joins and joins with arbitrary (non-equi)
// predicates. It is also the oracle the property tests compare HashJoin
// against. The right side is materialized once; the left side streams
// batch by batch, so probe-side memory is O(batch) and a LIMIT above
// the join stops pulling from the left source early.
//
// With Workers > 1 the left side is materialized too and probed over
// contiguous morsels whose outputs concatenate in morsel order —
// byte-identical to the streamed probe. A probe side that outgrows the
// memory grant falls back to the streamed serial probe; the build side
// has no spill path (every probe row must see every build row under an
// arbitrary predicate), so a build that outgrows the grant fails with
// ErrOutOfMemoryBudget.
type NestedLoopJoin struct {
	Left, Right Operator
	Type        JoinType
	On          expr.Expr // nil means always-true (cross join)
	// Workers caps probe-side parallelism; 0 or 1 probes serially.
	Workers int
	// Budget is the shared extra-worker budget (nil = unlimited).
	Budget *sched.Budget
	// Mem is the statement memory grant (nil = unlimited).
	Mem *sched.MemBudget

	out     storage.Schema
	rdata   *storage.Batch
	ldata   *storage.Batch
	lpos    int
	lopen   bool
	ldone   bool
	slowOut []*storage.Batch
	slowPos int
	mt      memTracker
	stats   OpStats
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() storage.Schema {
	if j.out.Len() == 0 {
		j.out = joinSchema(j.Left.Schema(), j.Right.Schema())
	}
	return j.out
}

// OpStats implements Instrumented.
func (j *NestedLoopJoin) OpStats() *OpStats { return &j.stats }

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	t0 := j.stats.begin()
	err := j.open()
	j.stats.opened(t0)
	return err
}

func (j *NestedLoopJoin) open() error {
	j.Schema()
	j.mt = memTracker{mem: j.Mem}
	j.slowOut, j.slowPos = nil, 0
	j.lopen, j.ldone = false, false
	j.ldata, j.lpos = nil, 0
	var err error
	j.rdata, err = Drain(j.Right)
	if err != nil {
		return err
	}
	if !j.mt.reserve(storage.BatchBytes(j.rdata)) {
		return ErrOutOfMemoryBudget
	}
	if j.Workers > 1 {
		// When the probe side outgrows the grant, openParallel leaves the
		// left input open behind the buffered prefix, which the streamed
		// serial probe then reads first: no row is read twice.
		return j.openParallel()
	}
	if err := j.Left.Open(); err != nil {
		return err
	}
	j.lopen, j.ldone = true, false
	j.ldata, j.lpos = nil, 0
	return nil
}

// openParallel materializes the left side under the grant and probes it
// over parallel morsels. A left side that does not fit stays open: the
// buffered prefix becomes the first probe batch of the streamed serial
// probe.
func (j *NestedLoopJoin) openParallel() error {
	lmt := memTracker{mem: j.Mem}
	if err := j.Left.Open(); err != nil {
		return err
	}
	lall := storage.NewBatch(j.Left.Schema())
	for {
		b, err := j.Left.Next()
		if err != nil {
			j.Left.Close()
			return err
		}
		if b == nil {
			break
		}
		spill := !lmt.reserve(storage.BatchBytes(b))
		if err := storage.Concat(lall, b); err != nil {
			j.Left.Close()
			return err
		}
		if spill {
			lmt.releaseAll()
			j.ldata, j.lpos = lall, 0
			j.lopen = true
			return nil
		}
	}
	if err := j.Left.Close(); err != nil {
		return err
	}
	j.mt.held += lmt.held
	lmt.held = 0
	n := lall.Len()
	w := splitParts(n, j.Workers)
	if w < 2 {
		// Too small to fan out: serve the materialized batch serially.
		j.ldata, j.lpos = lall, 0
		j.ldone = true
		return nil
	}
	j.ldata = lall
	outs := make([][]*storage.Batch, w)
	errs := make([]error, w)
	sched.ForEach(j.Budget, w, w, func(m int) {
		outs[m], errs[m] = j.probeNLRange(m*n/w, (m+1)*n/w)
	})
	j.ldata = nil
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	j.slowOut = make([]*storage.Batch, 0, w)
	for _, bs := range outs {
		j.slowOut = append(j.slowOut, bs...)
	}
	j.slowPos = 0
	return nil
}

// probeNLRange probes left rows [lo, hi) of the materialized left side,
// returning that morsel's result batches.
func (j *NestedLoopJoin) probeNLRange(lo, hi int) ([]*storage.Batch, error) {
	var batches []*storage.Batch
	out := storage.NewBatch(j.out)
	for i := lo; i < hi; i++ {
		if out.Len() >= storage.BatchSize {
			batches = append(batches, out)
			out = storage.NewBatch(j.out)
		}
		if err := j.probeRow(j.ldata, i, out); err != nil {
			return nil, err
		}
	}
	if out.Len() > 0 {
		batches = append(batches, out)
	}
	return batches, nil
}

// probeRow joins left row i of lb against the whole build side,
// appending matches (or the left-join pad) to out. ON is evaluated
// vectorized, once over the row's pairs with every build row.
func (j *NestedLoopJoin) probeRow(lb *storage.Batch, i int, out *storage.Batch) error {
	n := j.rdata.Len()
	lidx, ridx := make([]int, n), make([]int, n)
	for r := range ridx {
		lidx[r], ridx[r] = i, r
	}
	if j.On != nil && n > 0 {
		pred, err := expr.EvalVector(j.On, gatherPairs(j.out, lb, j.rdata, lidx, ridx))
		if err != nil {
			return err
		}
		k := 0
		for r := range ridx {
			if pred.Value(r).IsTrue() {
				ridx[k] = r
				k++
			}
		}
		lidx, ridx = lidx[:k], ridx[:k]
	}
	if len(ridx) == 0 {
		if j.Type != LeftJoin {
			return nil
		}
		lidx, ridx = []int{i}, []int{-1}
	}
	return storage.Concat(out, gatherPairs(j.out, lb, j.rdata, lidx, ridx))
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (*storage.Batch, error) {
	t0 := j.stats.begin()
	b, err := j.next()
	j.stats.record(t0, b)
	return b, err
}

func (j *NestedLoopJoin) next() (*storage.Batch, error) {
	if j.slowOut != nil {
		if j.slowPos >= len(j.slowOut) {
			return nil, nil
		}
		b := j.slowOut[j.slowPos]
		j.slowPos++
		return b, nil
	}
	if j.rdata == nil {
		return nil, nil
	}
	out := storage.NewBatch(j.out)
	for out.Len() < storage.BatchSize {
		if j.ldata == nil || j.lpos >= j.ldata.Len() {
			if j.ldone {
				break
			}
			b, err := j.Left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.ldone = true
				break
			}
			j.ldata, j.lpos = b, 0
			continue
		}
		i := j.lpos
		j.lpos++
		if err := j.probeRow(j.ldata, i, out); err != nil {
			return nil, err
		}
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return out, nil
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.stats.closed()
	j.rdata = nil
	j.ldata = nil
	j.slowOut = nil
	j.mt.releaseAll()
	if j.lopen {
		j.lopen = false
		return j.Left.Close()
	}
	return nil
}
