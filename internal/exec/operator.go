// Package exec implements the vectorized volcano executor: physical
// operators that pull record batches from their children. The SQL
// planner assembles these; the vertex-centric runtime reaches them
// through SQL, assembling its table-union input (the paper's §2.3
// "Table Unions" optimization) with a UNION ALL statement.
package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Operator is a pull-based physical operator producing record batches.
// Next returns a nil batch at end of stream. Operators are single-use:
// Open, Next until nil, Close.
type Operator interface {
	// Schema describes the batches the operator produces.
	Schema() storage.Schema
	// Open prepares the operator (and its children) for iteration.
	Open() error
	// Next returns the next batch, or nil at end of stream.
	Next() (*storage.Batch, error)
	// Close releases resources.
	Close() error
}

// NextChunk emits rows [*pos, min(*pos+BatchSize, hi)) of b and
// advances *pos — the shared cursor behind every operator that streams
// a materialized batch in bounded pieces. It returns b itself (no
// copy) when the chunk covers the whole batch, and nil once *pos
// reaches hi.
func NextChunk(b *storage.Batch, pos *int, hi int) *storage.Batch {
	if *pos >= hi {
		return nil
	}
	end := *pos + storage.BatchSize
	if end > hi {
		end = hi
	}
	out := b
	if *pos != 0 || end != b.Len() {
		out = b.Slice(*pos, end)
	}
	*pos = end
	return out
}

// Drain pulls every batch from op into one concatenated batch. The
// operator is opened and closed by Drain.
func Drain(op Operator) (*storage.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	out := storage.NewBatch(op.Schema())
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if err := storage.Concat(out, b); err != nil {
			return nil, err
		}
	}
}

// TableScan reads a table's current contents in batches, shard by
// shard in shard-major order. The source is any storage.TableData: a
// live *storage.Table (reads are then the caller's latch discipline)
// or an immutable *storage.Snapshot (MVCC readers — no latch at all).
// A scan may be restricted to one hash shard (Shard, 1-based) and/or
// to morsel `part` of `parts` (a contiguous fraction of the selected
// row range, computed from the row counts at Open); the zero value
// scans the whole table. Each morsel carries its own cursor — there is
// no shared scan state between fragments.
type TableScan struct {
	Table storage.TableData
	// OutSchema optionally renames the scan's output columns (the
	// planner uses this to apply alias qualifiers).
	OutSchema storage.Schema
	// Shard restricts the scan to one hash shard (1-based; 0 scans
	// every shard). The planner sets it when a point predicate on the
	// partition key routes a lookup to the owning shard; a routed scan
	// is read as one fragment (Parallelize never splits it).
	Shard int

	part, parts int

	segs  []*storage.Batch // shard-major segments of the selected row space
	seg   int              // current segment
	pos   int              // cursor within the current segment
	left  int              // rows remaining in this morsel
	stats OpStats
}

// NewTableScan returns a scan over the table (or snapshot) with its
// own schema.
func NewTableScan(t storage.TableData) *TableScan {
	return &TableScan{Table: t, OutSchema: t.Schema()}
}

// Schema implements Operator.
func (s *TableScan) Schema() storage.Schema { return s.OutSchema }

// OpStats implements Instrumented.
func (s *TableScan) OpStats() *OpStats { return &s.stats }

// Open implements Operator.
func (s *TableScan) Open() error {
	t0 := s.stats.begin()
	err := s.open()
	s.stats.opened(t0)
	return err
}

func (s *TableScan) open() error {
	if sh, ok := s.Table.(storage.Sharded); ok && (sh.NumShards() > 1 || s.Shard > 0) {
		if s.Shard > 0 {
			s.segs = []*storage.Batch{sh.ShardBatch(s.Shard - 1)}
		} else {
			s.segs = make([]*storage.Batch, sh.NumShards())
			for i := range s.segs {
				s.segs[i] = sh.ShardBatch(i)
			}
		}
	} else {
		s.segs = []*storage.Batch{s.Table.Data()}
	}
	n := 0
	for _, b := range s.segs {
		n += b.Len()
	}
	lo, hi := 0, n
	if s.parts > 1 {
		lo = s.part * n / s.parts
		hi = (s.part + 1) * n / s.parts
	}
	// Seek the cursor to global row lo (skipping empty segments).
	s.seg, s.pos = 0, lo
	for s.seg < len(s.segs) && s.pos >= s.segs[s.seg].Len() {
		s.pos -= s.segs[s.seg].Len()
		s.seg++
	}
	s.left = hi - lo
	return nil
}

// Next implements Operator.
func (s *TableScan) Next() (*storage.Batch, error) {
	t0 := s.stats.begin()
	b, err := s.next()
	s.stats.record(t0, b)
	return b, err
}

func (s *TableScan) next() (*storage.Batch, error) {
	for s.left > 0 && s.seg < len(s.segs) {
		cur := s.segs[s.seg]
		if s.pos >= cur.Len() {
			s.seg++
			s.pos = 0
			continue
		}
		end := s.pos + storage.BatchSize
		if end > cur.Len() {
			end = cur.Len()
		}
		if end-s.pos > s.left {
			end = s.pos + s.left
		}
		out := &storage.Batch{Schema: s.OutSchema, Cols: make([]storage.Column, len(cur.Cols))}
		for i, c := range cur.Cols {
			out.Cols[i] = c.Slice(s.pos, end)
		}
		s.left -= end - s.pos
		s.pos = end
		return out, nil
	}
	return nil, nil
}

// Close implements Operator.
func (s *TableScan) Close() error {
	s.segs = nil
	s.stats.closed()
	return nil
}

// BatchSource serves a pre-materialized batch (used for VALUES, CTE
// results and tests). Like TableScan it may be restricted to morsel
// `part` of `parts`.
type BatchSource struct {
	Data *storage.Batch

	part, parts int

	pos   int
	end   int
	stats OpStats
}

// Schema implements Operator.
func (s *BatchSource) Schema() storage.Schema { return s.Data.Schema }

// OpStats implements Instrumented.
func (s *BatchSource) OpStats() *OpStats { return &s.stats }

// Open implements Operator.
func (s *BatchSource) Open() error {
	t0 := s.stats.begin()
	n := s.Data.Len()
	s.pos, s.end = 0, n
	if s.parts > 1 {
		s.pos = s.part * n / s.parts
		s.end = (s.part + 1) * n / s.parts
	}
	s.stats.opened(t0)
	return nil
}

// Next implements Operator.
func (s *BatchSource) Next() (*storage.Batch, error) {
	t0 := s.stats.begin()
	b := NextChunk(s.Data, &s.pos, s.end)
	s.stats.record(t0, b)
	return b, nil
}

// Close implements Operator.
func (s *BatchSource) Close() error {
	s.stats.closed()
	return nil
}

// Filter passes through rows for which Pred evaluates to TRUE.
type Filter struct {
	Input Operator
	Pred  expr.Expr
	stats OpStats
}

// Schema implements Operator.
func (f *Filter) Schema() storage.Schema { return f.Input.Schema() }

// OpStats implements Instrumented.
func (f *Filter) OpStats() *OpStats { return &f.stats }

// Open implements Operator.
func (f *Filter) Open() error {
	t0 := f.stats.begin()
	err := f.Input.Open()
	f.stats.opened(t0)
	return err
}

// Next implements Operator. The predicate is evaluated vectorized over
// the whole batch; rows where it is non-null TRUE survive.
func (f *Filter) Next() (*storage.Batch, error) {
	t0 := f.stats.begin()
	b, err := f.next()
	f.stats.record(t0, b)
	return b, err
}

func (f *Filter) next() (*storage.Batch, error) {
	for {
		b, err := f.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := b.Len()
		pred, err := expr.EvalVector(f.Pred, b)
		if err != nil {
			return nil, err
		}
		keep := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !pred.IsNull(i) && pred.Value(i).IsTrue() {
				keep = append(keep, i)
			}
		}
		if len(keep) == 0 {
			continue
		}
		if len(keep) == n {
			return b, nil
		}
		return b.Gather(keep), nil
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	f.stats.closed()
	return f.Input.Close()
}

// Project evaluates expressions per row, producing a new schema.
type Project struct {
	Input Operator
	Exprs []expr.Expr
	Out   storage.Schema
	stats OpStats
}

// NewProject builds a projection with output column names.
func NewProject(in Operator, exprs []expr.Expr, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("exec: project arity mismatch")
	}
	cols := make([]storage.ColumnDef, len(exprs))
	for i, e := range exprs {
		cols[i] = storage.Col(names[i], e.Type())
	}
	return &Project{Input: in, Exprs: exprs, Out: storage.NewSchema(cols...)}, nil
}

// Schema implements Operator.
func (p *Project) Schema() storage.Schema { return p.Out }

// OpStats implements Instrumented.
func (p *Project) OpStats() *OpStats { return &p.stats }

// Open implements Operator.
func (p *Project) Open() error {
	t0 := p.stats.begin()
	err := p.Input.Open()
	p.stats.opened(t0)
	return err
}

// Next implements Operator. Each output expression is evaluated
// vectorized over the whole input batch; plain column references are
// passed through without copying.
func (p *Project) Next() (*storage.Batch, error) {
	t0 := p.stats.begin()
	b, err := p.next()
	p.stats.record(t0, b)
	return b, err
}

func (p *Project) next() (*storage.Batch, error) {
	b, err := p.Input.Next()
	if err != nil || b == nil {
		return nil, err
	}
	out := &storage.Batch{Schema: p.Out, Cols: make([]storage.Column, len(p.Exprs))}
	for j, e := range p.Exprs {
		col, err := expr.EvalVector(e, b)
		if err != nil {
			return nil, err
		}
		out.Cols[j] = col
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error {
	p.stats.closed()
	return p.Input.Close()
}

// Limit returns at most N rows after skipping Offset rows.
type Limit struct {
	Input   Operator
	N       int64
	Offset  int64
	skipped int64
	sent    int64
	stats   OpStats
}

// Schema implements Operator.
func (l *Limit) Schema() storage.Schema { return l.Input.Schema() }

// OpStats implements Instrumented.
func (l *Limit) OpStats() *OpStats { return &l.stats }

// Open implements Operator.
func (l *Limit) Open() error {
	t0 := l.stats.begin()
	l.skipped, l.sent = 0, 0
	err := l.Input.Open()
	l.stats.opened(t0)
	return err
}

// Next implements Operator.
func (l *Limit) Next() (*storage.Batch, error) {
	t0 := l.stats.begin()
	b, err := l.next()
	l.stats.record(t0, b)
	return b, err
}

func (l *Limit) next() (*storage.Batch, error) {
	for {
		if l.sent >= l.N {
			return nil, nil
		}
		b, err := l.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		n := int64(b.Len())
		// Skip offset rows.
		if l.skipped < l.Offset {
			if l.Offset-l.skipped >= n {
				l.skipped += n
				continue
			}
			b = b.Slice(int(l.Offset-l.skipped), int(n))
			l.skipped = l.Offset
			n = int64(b.Len())
		}
		if l.sent+n > l.N {
			b = b.Slice(0, int(l.N-l.sent))
		}
		l.sent += int64(b.Len())
		if b.Len() == 0 {
			continue
		}
		return b, nil
	}
}

// Close implements Operator.
func (l *Limit) Close() error {
	l.stats.closed()
	return l.Input.Close()
}

// UnionAll concatenates the outputs of its inputs. All inputs must have
// compatible schemas (same arity and types); the output uses the first
// input's column names. This operator is the heart of the paper's
// Table-Unions optimization.
//
// Inputs open lazily: input i+1 is opened only once input i is
// exhausted, so N blocking inputs (per-superstep Sorts, say) never
// materialize simultaneously — peak memory is one input, not N.
type UnionAll struct {
	Inputs []Operator
	cur    int
	opened int // inputs [0, opened) have been opened
	stats  OpStats
}

// Schema implements Operator.
func (u *UnionAll) Schema() storage.Schema { return u.Inputs[0].Schema() }

// OpStats implements Instrumented.
func (u *UnionAll) OpStats() *OpStats { return &u.stats }

// Open implements Operator: it validates schemas but defers opening
// each input until iteration reaches it.
func (u *UnionAll) Open() error {
	t0 := u.stats.begin()
	err := u.open()
	u.stats.opened(t0)
	return err
}

func (u *UnionAll) open() error {
	u.cur, u.opened = 0, 0
	first := u.Inputs[0].Schema()
	for _, in := range u.Inputs[1:] {
		s := in.Schema()
		if s.Len() != first.Len() {
			return fmt.Errorf("exec: UNION ALL arity mismatch: %d vs %d", first.Len(), s.Len())
		}
		for i := range s.Cols {
			if s.Cols[i].Type != first.Cols[i].Type {
				return fmt.Errorf("exec: UNION ALL type mismatch in column %d: %s vs %s",
					i, first.Cols[i].Type, s.Cols[i].Type)
			}
		}
	}
	return nil
}

// Next implements Operator.
func (u *UnionAll) Next() (*storage.Batch, error) {
	t0 := u.stats.begin()
	b, err := u.next()
	u.stats.record(t0, b)
	return b, err
}

func (u *UnionAll) next() (*storage.Batch, error) {
	for u.cur < len(u.Inputs) {
		if u.cur >= u.opened {
			if err := u.Inputs[u.cur].Open(); err != nil {
				return nil, err
			}
			u.opened = u.cur + 1
		}
		b, err := u.Inputs[u.cur].Next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			if u.cur > 0 {
				b = &storage.Batch{Schema: u.Schema(), Cols: b.Cols}
			}
			return b, nil
		}
		u.cur++
	}
	return nil, nil
}

// Close implements Operator: only inputs that were actually opened are
// closed.
func (u *UnionAll) Close() error {
	u.stats.closed()
	var first error
	for _, in := range u.Inputs[:u.opened] {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	u.opened = 0
	return first
}

// Sort materializes its input and emits it ordered by Keys in
// storage.BatchSize batches (a sort is inherently blocking, but its
// consumers stream). With Workers > 1 the input is divided into
// contiguous morsels, each stably sorted on its own worker, and the
// sorted runs are merged pairwise — also in parallel — via
// storage.MergeSortedBatches. Both the per-morsel sort and the merge
// are stable with earlier input preferred on ties, so the result is
// row-for-row identical to the serial sort at any worker count.
//
// With a memory grant (Mem), Sort becomes an external merge sort: input
// buffering reserves against the grant, and each denied reservation
// cuts the buffered prefix into a sorted on-disk run. Runs are
// contiguous input regions in input order, each stably sorted, and the
// final pairwise ladder of storage.MergeSpillRuns is stable with the
// earlier run preferred on ties — the composition is exactly the global
// stable sort, so a 64KB budget and an unlimited one emit identical
// bytes. When no reservation is denied the in-memory path runs
// unchanged.
type Sort struct {
	Input Operator
	Keys  []storage.SortKey
	// Workers caps sort/merge parallelism; 0 or 1 sorts serially.
	Workers int
	// Budget is the shared extra-worker budget (nil = unlimited).
	Budget *sched.Budget
	// Mem is the statement memory grant (nil = unlimited); a denied
	// reservation spills. FS creates spill files (nil = the default
	// temp-file filesystem).
	Mem *sched.MemBudget
	FS  storage.SpillFS

	out   *storage.Batch
	pos   int
	run   *storage.SpillRun // final merged run when the sort spilled
	frame int               // next run frame to emit
	mt    memTracker
	stats OpStats
}

// Schema implements Operator.
func (s *Sort) Schema() storage.Schema { return s.Input.Schema() }

// OpStats implements Instrumented.
func (s *Sort) OpStats() *OpStats { return &s.stats }

// Open implements Operator.
func (s *Sort) Open() error {
	t0 := s.stats.begin()
	err := s.open()
	s.stats.opened(t0)
	return err
}

func (s *Sort) open() error {
	s.pos, s.frame = 0, 0
	s.mt = memTracker{mem: s.Mem}
	if err := s.Input.Open(); err != nil {
		return err
	}
	defer s.Input.Close()
	all := storage.NewBatch(s.Input.Schema())
	var runs []*storage.SpillRun
	closeRuns := func() {
		for _, r := range runs {
			r.Close()
		}
	}
	for {
		b, err := s.Input.Next()
		if err != nil {
			closeRuns()
			return err
		}
		if b == nil {
			break
		}
		if !s.mt.reserve(storage.BatchBytes(b)) && all.Len() > 0 {
			run, err := s.spillRun(all)
			if err != nil {
				closeRuns()
				return err
			}
			runs = append(runs, run)
			s.mt.releaseAll()
			all = storage.NewBatch(s.Input.Schema())
			// Re-reserve against the fresh buffer; a denial here means
			// even one batch exceeds the grant, and the one-batch working
			// floor proceeds unreserved.
			s.mt.reserve(storage.BatchBytes(b))
		}
		if err := storage.Concat(all, b); err != nil {
			closeRuns()
			return err
		}
	}
	if len(runs) == 0 {
		s.out = s.sortAll(all)
		return nil
	}
	if all.Len() > 0 {
		run, err := s.spillRun(all)
		if err != nil {
			closeRuns()
			return err
		}
		runs = append(runs, run)
	}
	s.mt.releaseAll()
	merged, err := s.mergeRuns(runs)
	if err != nil {
		return err
	}
	s.run = merged
	return nil
}

// sortAll is the in-memory sort: per-morsel stable sorts merged by a
// pairwise ladder, both parallel. It is also how each spill run is
// ordered before it hits disk.
func (s *Sort) sortAll(all *storage.Batch) *storage.Batch {
	n := all.Len()
	m := splitParts(n, s.Workers)
	if m < 2 {
		return storage.SortBatch(all, s.Keys)
	}
	runs := make([]*storage.Batch, m)
	sched.ForEach(s.Budget, m, s.Workers, func(i int) {
		runs[i] = storage.SortBatch(all.Slice(i*n/m, (i+1)*n/m), s.Keys)
	})
	for len(runs) > 1 {
		next := make([]*storage.Batch, (len(runs)+1)/2)
		sched.ForEach(s.Budget, len(next), s.Workers, func(i int) {
			if 2*i+1 < len(runs) {
				next[i] = storage.MergeSortedBatches(runs[2*i], runs[2*i+1], s.Keys)
			} else {
				next[i] = runs[2*i]
			}
		})
		runs = next
	}
	return runs[0]
}

func (s *Sort) fs() storage.SpillFS {
	if s.FS != nil {
		return s.FS
	}
	return storage.DefaultSpillFS
}

// spillRun sorts the buffered prefix and writes it to disk as one run
// in BatchSize frames.
func (s *Sort) spillRun(all *storage.Batch) (*storage.SpillRun, error) {
	sorted := s.sortAll(all)
	w, err := storage.NewRunWriter(s.fs(), sorted.Schema)
	if err != nil {
		return nil, err
	}
	pos := 0
	for {
		b := NextChunk(sorted, &pos, sorted.Len())
		if b == nil {
			break
		}
		if err := w.Write(b); err != nil {
			w.Abort()
			return nil, err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return nil, err
	}
	s.stats.spilled(run)
	return run, nil
}

// mergeRuns reduces the sorted runs to one by a parallel pairwise
// ladder of streaming disk merges, closing inputs as they are consumed.
// Earlier runs win ties at every rung, so the result is the global
// stable sort.
func (s *Sort) mergeRuns(runs []*storage.SpillRun) (*storage.SpillRun, error) {
	for len(runs) > 1 {
		next := make([]*storage.SpillRun, (len(runs)+1)/2)
		errs := make([]error, len(next))
		sched.ForEach(s.Budget, len(next), s.Workers, func(i int) {
			if 2*i+1 < len(runs) {
				m, err := storage.MergeSpillRuns(s.fs(), runs[2*i], runs[2*i+1], s.Keys)
				runs[2*i].Close()
				runs[2*i+1].Close()
				if err != nil {
					errs[i] = err
					return
				}
				s.stats.spilled(m)
				next[i] = m
			} else {
				next[i] = runs[2*i]
			}
		})
		runs = next
		for _, err := range errs {
			if err != nil {
				for _, r := range runs {
					r.Close()
				}
				return nil, err
			}
		}
	}
	return runs[0], nil
}

// Next implements Operator: sorted rows stream out in bounded batches —
// from memory, or frame by frame from the merged run when the sort
// spilled.
func (s *Sort) Next() (*storage.Batch, error) {
	t0 := s.stats.begin()
	b, err := s.next()
	s.stats.record(t0, b)
	return b, err
}

func (s *Sort) next() (*storage.Batch, error) {
	if s.run != nil {
		if s.frame >= s.run.Frames() {
			return nil, nil
		}
		b, err := s.run.ReadFrame(s.frame)
		if err != nil {
			return nil, err
		}
		s.frame++
		return b, nil
	}
	return NextChunk(s.out, &s.pos, s.out.Len()), nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.out = nil
	err := s.run.Close()
	s.run = nil
	s.mt.releaseAll()
	s.stats.closed()
	return err
}

// Distinct removes duplicate rows (full-row comparison). Its seen-set
// has no spill path: when the set's estimated footprint exceeds the
// memory grant the statement fails with ErrOutOfMemoryBudget.
type Distinct struct {
	Input Operator
	// Mem is the statement memory grant (nil = unlimited).
	Mem   *sched.MemBudget
	seen  map[uint64][][]storage.Value
	mt    memTracker
	stats OpStats
}

// Schema implements Operator.
func (d *Distinct) Schema() storage.Schema { return d.Input.Schema() }

// OpStats implements Instrumented.
func (d *Distinct) OpStats() *OpStats { return &d.stats }

// Open implements Operator.
func (d *Distinct) Open() error {
	t0 := d.stats.begin()
	d.seen = make(map[uint64][][]storage.Value)
	d.mt = memTracker{mem: d.Mem}
	err := d.Input.Open()
	d.stats.opened(t0)
	return err
}

// Next implements Operator.
func (d *Distinct) Next() (*storage.Batch, error) {
	t0 := d.stats.begin()
	b, err := d.next()
	d.stats.record(t0, b)
	return b, err
}

func (d *Distinct) next() (*storage.Batch, error) {
	for {
		b, err := d.Input.Next()
		if err != nil || b == nil {
			return nil, err
		}
		keep := make([]int, 0, b.Len())
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			h := storage.HashRow(row)
			dup := false
			for _, prev := range d.seen[h] {
				if rowsEqual(prev, row) {
					dup = true
					break
				}
			}
			if !dup {
				d.seen[h] = append(d.seen[h], row)
				keep = append(keep, i)
			}
		}
		// Charge the retained rows to the grant: ~64 bytes per Value
		// (header, hash-bucket share, payload estimate). No spill path —
		// a denial is a statement failure.
		if !d.mt.reserve(int64(len(keep)) * 64 * int64(len(b.Cols))) {
			return nil, ErrOutOfMemoryBudget
		}
		if len(keep) == 0 {
			continue
		}
		return b.Gather(keep), nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.stats.closed()
	d.seen = nil
	d.mt.releaseAll()
	return d.Input.Close()
}

func rowsEqual(a, b []storage.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if !a[i].Null && storage.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}
