package exec

import (
	"fmt"
	"math/bits"
	"sync"
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
//
// Open builds the right side; Next pulls one probe batch at a time,
// probes it, and emits at most storage.BatchSize rows, so probe memory
// is O(batch) and a LIMIT above the join stops the probe early. Probe
// parallelism comes from the planner's fragments: splitFragment clones
// the join once per probe morsel, every clone probing one shared,
// read-only build, and the Gather above restores the serial row order.
type HashJoin struct {
	Left, Right Operator
	// LeftKeys/RightKeys are column indexes into the respective schemas.
	LeftKeys, RightKeys []int
	Type                JoinType // InnerJoin or LeftJoin
	// Residual, if non-nil, is evaluated over the combined row and must
	// be TRUE for the match to survive (non-equi conjuncts of ON).
	Residual expr.Expr
	// Workers caps the parallelism of hashing the build side's keys;
	// 0 or 1 hashes serially.
	Workers int
	// Budget is the shared extra-worker budget (nil = unlimited).
	Budget *sched.Budget
	// Mem is the statement memory grant (nil = unlimited). A build side
	// that outgrows it switches the join to the Grace partitioned path.
	// FS creates spill files (nil = the default temp-file filesystem).
	Mem *sched.MemBudget
	FS  storage.SpillFS

	out storage.Schema
	buildRef
	side  probeSide // the probe batch being probed
	lopen bool      // left operator is open
	ldone bool      // left operator is exhausted

	// grace is the K-way idx-merge over partition result runs when the
	// build side spilled.
	grace *graceState

	stats OpStats
	// probeRows counts this join's probe-side input; with the build's
	// row count, EXPLAIN ANALYZE reports which side dominated.
	probeRows atomic.Int64
}

// OpStats implements Instrumented.
func (j *HashJoin) OpStats() *OpStats { return &j.stats }

// BuildProbeRows reports the build-side and probe-side input row counts
// of the latest execution.
func (j *HashJoin) BuildProbeRows() (build, probe int64) {
	return j.build().rows.Load(), j.probeRows.Load()
}

func (j *HashJoin) inputs() (left, right Operator) { return j.Left, j.Right }

// clone returns a copy of the join over another probe input that shares
// this join's build side and right input. Its schema is set here:
// clones open on worker goroutines while the Gather reads the schema.
func (j *HashJoin) clone(left Operator, b *joinBuild) clonedJoin {
	return &HashJoin{
		Left: left, Right: j.Right, LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
		Type: j.Type, Residual: j.Residual, Workers: j.Workers, Budget: j.Budget,
		Mem: j.Mem, FS: j.FS, out: j.Schema(), buildRef: buildRef{shared: b},
	}
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
	j.grace, j.side, j.ldone = nil, probeSide{}, false
	j.probeRows.Store(0)
	b := j.build()
	if err := b.get(func() error { return b.fill(j) }); err != nil {
		return err
	}
	if b.table == nil {
		// The build side did not fit: Grace partitioned join against
		// the build's partition runs.
		return j.openGrace(b)
	}
	if err := j.Left.Open(); err != nil {
		return err
	}
	j.lopen = true
	return nil
}

// exactKeys reports whether the build table may compare keys by value:
// a single INTEGER key on both sides.
func (j *HashJoin) exactKeys() bool {
	return len(j.RightKeys) == 1 &&
		j.Left.Schema().Cols[j.LeftKeys[0]].Type == storage.TypeInt64 &&
		j.Right.Schema().Cols[j.RightKeys[0]].Type == storage.TypeInt64
}

// buildRef holds a join's build side: its own, or — for a clone — the
// one the clones of a join share.
type buildRef struct {
	shared *joinBuild
	own    joinBuild
}

func (r *buildRef) build() *joinBuild {
	if r.shared != nil {
		return r.shared
	}
	return &r.own
}

// joinBuild is a join's build side: built once per execution by
// whichever clone opens first, read-only afterwards. A hash join's holds
// the hash table or, when the right input outgrew the memory grant, the
// right input's level-0 Grace partition runs; a nested-loop join's
// holds the right input's rows.
type joinBuild struct {
	mu    sync.Mutex
	built bool
	err   error
	rb    *storage.Batch
	table *joinTable
	runs  [spillParts]*storage.SpillRun
	mt    memTracker
	rows  atomic.Int64
	// clones are the joins sharing this build, in fragment order (nil
	// for a join that is not cloned).
	clones []clonedJoin
}

// get builds the build side with fill unless it is built. Clones that
// arrive while another builds wait on mu until it is done; fill drains
// the right input, which never reaches this build, so holding mu across
// it cannot deadlock.
func (b *joinBuild) get(fill func() error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.built {
		b.built = true
		b.err = fill()
	}
	return b.err
}

// fill drains the right input, reserving each batch against the grant.
// The first denied reservation (past the first batch, the working
// floor) hands what is buffered plus the rest of the stream to Grace
// partition runs on disk.
func (b *joinBuild) fill(j *HashJoin) error {
	b.rows.Store(0)
	b.mt = memTracker{mem: j.Mem}
	if err := j.Right.Open(); err != nil {
		return err
	}
	rb := storage.NewBatch(j.Right.Schema())
	for {
		x, err := j.Right.Next()
		if err != nil {
			j.Right.Close()
			return err
		}
		if x == nil {
			break
		}
		b.rows.Add(int64(x.Len()))
		spill := !b.mt.reserve(storage.BatchBytes(x)) && rb.Len() > 0
		if err := storage.Concat(rb, x); err != nil {
			j.Right.Close()
			return err
		}
		if spill {
			b.runs, err = j.partitionRight(rb, &b.rows)
			b.mt.releaseAll() // the buffered prefix lives on disk now
			return err
		}
	}
	if err := j.Right.Close(); err != nil {
		return err
	}
	b.table = newJoinTable(rb, j.RightKeys, j.exactKeys(), j.Workers, j.Budget)
	return nil
}

// release drops the build and its reservation, so the next get
// rebuilds it.
func (b *joinBuild) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	closeRuns(b.runs[:])
	b.runs = [spillParts]*storage.SpillRun{}
	b.rb, b.table, b.built, b.err = nil, nil, false, nil
	b.mt.releaseAll()
}

// joinTable is a build batch's rows grouped by join key in a flat
// open-addressing table. Every non-NULL key owns a slot holding the key
// and its group; a group's rows sit contiguously in rows, in ascending
// build order. A key is the combined column-wise key hash — equal
// hashes are checked with a typed key comparison — or, for an exact
// table (a single INTEGER key), the key value itself, which needs no
// check.
type joinTable struct {
	rb      *storage.Batch
	keys    []int
	exact   bool
	shift   uint     // 64 - log2(len(slotKey))
	slotKey []uint64 // the key of each occupied slot
	slotGrp []int32  // 1 + the slot's group; 0 marks an empty slot
	start   []int32  // group g's rows are rows[start[g]:start[g+1]]
	rows    []int32
}

// newJoinTable groups the rows of rb by their key columns. With
// workers > 1 the key hashes are computed over parallel morsels.
func newJoinTable(rb *storage.Batch, keys []int, exact bool, workers int, budget *sched.Budget) *joinTable {
	n := rb.Len()
	t := &joinTable{rb: rb, keys: keys, exact: exact}
	var kh keyHashes
	if w := splitParts(n, workers); w > 1 && !exact {
		kh.resize(n)
		sched.ForEach(budget, w, workers, func(m int) {
			lo, hi := m*n/w, (m+1)*n/w
			storage.HashKeys(rb, keys, lo, hi, kh.h[lo:hi], kh.null[lo:hi])
		})
	} else {
		t.keysOf(rb, keys, &kh)
	}
	size := 8
	for size < 2*n {
		size <<= 1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.slotKey = make([]uint64, size)
	t.slotGrp = make([]int32, size)
	grp := make([]int32, n)
	var counts []int32
	for i, k := range kh.h {
		if kh.null[i] {
			grp[i] = -1
			continue
		}
		s := t.slot(k)
		if t.slotGrp[s] == 0 {
			t.slotKey[s] = k
			counts = append(counts, 0)
			t.slotGrp[s] = int32(len(counts))
		}
		g := t.slotGrp[s] - 1
		grp[i] = g
		counts[g]++
	}
	t.start = make([]int32, len(counts)+1)
	for g, c := range counts {
		t.start[g+1] = t.start[g] + c
		counts[g] = t.start[g] // now group g's fill cursor
	}
	t.rows = make([]int32, t.start[len(counts)])
	for i, g := range grp {
		if g >= 0 {
			t.rows[counts[g]] = int32(i)
			counts[g]++
		}
	}
	return t
}

// slot returns the slot holding key k, or the empty slot where it
// belongs (linear probing from a multiplicative hash of k).
func (t *joinTable) slot(k uint64) int {
	mask := len(t.slotKey) - 1
	for s := int((k * 0x9e3779b97f4a7c15) >> t.shift); ; s = (s + 1) & mask {
		if t.slotGrp[s] == 0 || t.slotKey[s] == k {
			return s
		}
	}
}

// matches returns the build rows whose key is k, in ascending order.
func (t *joinTable) matches(k uint64) []int32 {
	g := t.slotGrp[t.slot(k)]
	if g == 0 {
		return nil
	}
	return t.rows[t.start[g-1]:t.start[g]]
}

// keysOf computes the table keys of every row of b: the key values of
// an exact table, else the combined key hashes.
func (t *joinTable) keysOf(b *storage.Batch, keys []int, kh *keyHashes) {
	n := b.Len()
	kh.resize(n)
	if !t.exact {
		storage.HashKeys(b, keys, 0, n, kh.h, kh.null)
		return
	}
	c := b.Cols[keys[0]]
	if ic, ok := c.(*storage.Int64Column); ok {
		for i, v := range ic.Int64s() {
			kh.h[i] = uint64(v)
		}
	} else {
		for i := range kh.h {
			kh.h[i] = uint64(c.Value(i).I)
		}
	}
	clear(kh.null)
	if nb := storage.NullsOf(c); nb.Any() {
		for i := range kh.null {
			kh.null[i] = nb.Get(i)
		}
	}
}

// keyHashes holds one batch's join keys (or key hashes) and NULL-key
// flags; the slices are reused from batch to batch.
type keyHashes struct {
	h    []uint64
	null []bool
}

func (kh *keyHashes) resize(n int) {
	if cap(kh.h) < n {
		kh.h, kh.null = make([]uint64, n), make([]bool, n)
	}
	kh.h, kh.null = kh.h[:n], kh.null[:n]
}

// of hashes the key columns of every row of b.
func (kh *keyHashes) of(b *storage.Batch, keys []int) {
	kh.resize(b.Len())
	storage.HashKeys(b, keys, 0, b.Len(), kh.h, kh.null)
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

// probeSide is one probe batch readied for probing: its keys in the
// table's key space, the key-equality check of a hashed table (the
// hash-collision check; nil for an exact table), and the position of
// the next output row.
type probeSide struct {
	b   *storage.Batch
	kh  keyHashes
	eq  func(l, r int) bool
	row int // next probe row
	// match is the next candidate in row's match list; kept reports
	// whether row has already produced output, so a left join pads
	// only rows that produce none.
	match int
	kept  bool
	// lidx/ridx are the pair buffers, reused from call to call.
	lidx, ridx []int
}

func (j *HashJoin) setProbeSide(s *probeSide, b *storage.Batch, t *joinTable) {
	s.b, s.row, s.match, s.kept = b, 0, 0, false
	if s.lidx == nil {
		s.lidx, s.ridx = make([]int, 0, storage.BatchSize), make([]int, 0, storage.BatchSize)
	}
	t.keysOf(b, j.LeftKeys, &s.kh)
	s.eq = nil
	if !t.exact {
		s.eq = storage.KeysEqual(b, j.LeftKeys, t.rb, t.keys)
	}
}

// probe emits the next output rows of s — at most storage.BatchSize —
// with the probe row of each. It collects (left, right) row-index pairs
// in probe order, each probe row's matches in ascending build order,
// plus one pad marker (right index -1) per finished left-join row;
// evaluates the residual vectorized over the candidate pairs; keeps a
// pad only for a row none of whose pairs survived; and gathers the
// output columns once. A row whose matches do not fit resumes in the
// next call.
func (j *HashJoin) probe(s *probeSide, t *joinTable) (*storage.Batch, []int, error) {
	n := s.b.Len()
	lidx, ridx := s.lidx[:0], s.ridx[:0]
	first, firstKept := s.row, s.kept
	pad := j.Type == LeftJoin
	for s.row < n && len(lidx) < storage.BatchSize {
		i := s.row
		if !s.kh.null[i] {
			ms := t.matches(s.kh.h[i])
			for ; s.match < len(ms) && len(lidx) < storage.BatchSize; s.match++ {
				if r := int(ms[s.match]); s.eq == nil || s.eq(i, r) {
					lidx = append(lidx, i)
					ridx = append(ridx, r)
				}
			}
			if s.match < len(ms) || pad && len(lidx) == storage.BatchSize {
				break // the row (or its pad marker) continues next call
			}
		}
		if pad {
			lidx = append(lidx, i)
			ridx = append(ridx, -1)
		}
		s.row, s.match = s.row+1, 0
	}
	var pred storage.Column
	if j.Residual != nil {
		var cl, cr []int
		for k, r := range ridx {
			if r >= 0 {
				cl = append(cl, lidx[k])
				cr = append(cr, r)
			}
		}
		var err error
		if pred, err = expr.EvalVector(j.Residual, gatherPairs(j.out, s.b, t.rb, cl, cr)); err != nil {
			return nil, nil, err
		}
	}
	if pred != nil || pad {
		row, kept := first, firstKept
		out, c := 0, 0 // kept pairs; position among the candidates
		for k, l := range lidx {
			if l != row {
				row, kept = l, false
			}
			if ridx[k] >= 0 {
				if pred != nil && !pred.Value(c).IsTrue() {
					c++
					continue
				}
				c++
				kept = true
			} else if kept {
				continue
			}
			lidx[out], ridx[out] = l, ridx[k]
			out++
		}
		lidx, ridx = lidx[:out], ridx[:out]
		s.kept = s.match > 0 && row == s.row && kept
	}
	s.lidx, s.ridx = lidx, ridx
	return gatherPairs(j.out, s.b, t.rb, lidx, ridx), lidx, nil
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
	for {
		if j.side.b == nil || j.side.row >= j.side.b.Len() {
			if j.ldone {
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
			j.probeRows.Add(int64(b.Len()))
			j.setProbeSide(&j.side, b, j.build().table)
		}
		out, _, err := j.probe(&j.side, j.build().table)
		if err != nil {
			return nil, err
		}
		if out.Len() > 0 {
			return out, nil
		}
	}
}

// Close implements Operator. A clone leaves the shared build to the
// Gather that owns it.
func (j *HashJoin) Close() error {
	j.stats.closed()
	j.side = probeSide{}
	if j.grace != nil {
		closeRuns(j.grace.runs)
		j.grace = nil
	}
	j.own.release()
	if j.lopen {
		j.lopen = false
		return j.Left.Close()
	}
	return nil
}

// NestedLoopJoin handles cross joins and joins with arbitrary (non-equi)
// predicates. It is also the oracle the property tests compare HashJoin
// against. Open materializes the right side once; Next pulls the left
// side batch by batch, so probe-side memory is O(batch) and a LIMIT
// above the join stops pulling from the left source early. Like
// HashJoin, it runs in parallel as clones over probe morsels that share
// one right side. That right side has no spill path (every probe row
// must see every build row under an arbitrary predicate), so one that
// outgrows the memory grant fails with ErrOutOfMemoryBudget.
type NestedLoopJoin struct {
	Left, Right Operator
	Type        JoinType
	On          expr.Expr // nil means always-true (cross join)
	// Mem is the statement memory grant (nil = unlimited).
	Mem *sched.MemBudget

	out storage.Schema
	buildRef
	rdata *storage.Batch
	ldata *storage.Batch
	lpos  int
	lopen bool
	ldone bool
	stats OpStats
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

func (j *NestedLoopJoin) inputs() (left, right Operator) { return j.Left, j.Right }

func (j *NestedLoopJoin) clone(left Operator, b *joinBuild) clonedJoin {
	return &NestedLoopJoin{Left: left, Right: j.Right, Type: j.Type, On: j.On, Mem: j.Mem, out: j.Schema(), buildRef: buildRef{shared: b}}
}

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	t0 := j.stats.begin()
	err := j.open()
	j.stats.opened(t0)
	return err
}

func (j *NestedLoopJoin) open() error {
	j.Schema()
	j.ldata, j.lpos, j.ldone = nil, 0, false
	b := j.build()
	err := b.get(func() error {
		b.mt = memTracker{mem: j.Mem}
		rb, err := Drain(j.Right)
		if err != nil {
			return err
		}
		if !b.mt.reserve(storage.BatchBytes(rb)) {
			return ErrOutOfMemoryBudget
		}
		b.rb = rb
		return nil
	})
	if err != nil {
		return err
	}
	j.rdata = b.rb
	if err := j.Left.Open(); err != nil {
		return err
	}
	j.lopen = true
	return nil
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

// Close implements Operator. A clone leaves the shared right side to
// the Gather that owns it.
func (j *NestedLoopJoin) Close() error {
	j.stats.closed()
	j.rdata, j.ldata = nil, nil
	j.own.release()
	if j.lopen {
		j.lopen = false
		return j.Left.Close()
	}
	return nil
}
