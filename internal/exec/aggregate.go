package exec

import (
	"errors"
	"sort"

	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/storage"
)

// HashAggregate groups its input by the GroupBy expressions and
// evaluates the aggregates per group. Its output schema is the group
// columns followed by one column per aggregate. With no GroupBy
// expressions it produces exactly one row (the SQL scalar-aggregate
// case), even for empty input.
//
// A grouped aggregate consumes its input in windows — up to
// aggWindowBatches batches with Workers > 1, one batch otherwise — and
// folds each window in two stages: the group-key (and, on the fast
// path, aggregate-input) expressions are evaluated per batch on the
// worker pool, then the fold runs on w partitioned maps — each worker
// owns the hash partition of group keys assigned to it and folds every
// input row of its groups, in global row order. Group state persists
// across windows, so memory is O(window + groups), not O(input).
// Because a group lives entirely inside one partition, per-group
// accumulation order is identical to the serial fold, which keeps
// floating-point SUM/AVG results byte-identical at any worker count;
// group output order (first appearance) is restored by a final sort on
// each group's first input row. The fold starts on the vectorized
// int64-key path when the shape allows and migrates all groups to the
// generic path if a NULL or non-integer key appears mid-stream.
//
// Under a memory grant the window narrows and the fold may turn hybrid
// (see Mem); every path reads the input exactly once.
type HashAggregate struct {
	Input   Operator
	GroupBy []expr.Expr
	Aggs    []*expr.Aggregate
	// Names provides output column names: len(GroupBy)+len(Aggs).
	Names []string
	// Workers caps fold parallelism; 0 or 1 folds serially.
	Workers int
	// Budget is the shared extra-worker budget (nil = unlimited).
	Budget *sched.Budget
	// Mem is the statement memory grant (nil = unlimited). Buffered
	// window batches are working memory for parallelism: a denied batch
	// still joins its window (one batch is the working floor) but closes
	// it, narrowing the window. Group state reserves after each window:
	// a denial makes the fold hybrid — resident groups keep folding in
	// place, and every row of a group that is not resident goes to
	// spillParts hash-partitioned runs on disk, each folded once the
	// input ends. FS creates spill files (nil = the default temp-file
	// filesystem).
	Mem *sched.MemBudget
	FS  storage.SpillFS

	out    storage.Schema
	result *storage.Batch
	pos    int
	mt     memTracker
	stats  OpStats
}

// groupBytes estimates one group's resident state for accounting: map
// slot, first-row bookkeeping, keys and accumulators.
func (a *HashAggregate) groupBytes() int64 {
	return 64 + 32*int64(len(a.GroupBy)) + 48*int64(len(a.Aggs))
}

// OpStats implements Instrumented.
func (a *HashAggregate) OpStats() *OpStats { return &a.stats }

// aggWindowBatches bounds how many input batches the parallel grouped
// fold buffers at once. It is a variable so tests can exercise the
// windowed path on small inputs.
var aggWindowBatches = 64

// Schema implements Operator.
func (a *HashAggregate) Schema() storage.Schema {
	if a.out.Len() == 0 {
		cols := make([]storage.ColumnDef, 0, len(a.GroupBy)+len(a.Aggs))
		for i, g := range a.GroupBy {
			cols = append(cols, storage.Col(a.Names[i], g.Type()))
		}
		for i, ag := range a.Aggs {
			t, err := ag.ResultType()
			if err != nil {
				t = storage.TypeFloat64
			}
			cols = append(cols, storage.Col(a.Names[len(a.GroupBy)+i], t))
		}
		a.out = storage.NewSchema(cols...)
	}
	return a.out
}

// fastKeyable reports whether the vectorized single-int64-key path
// applies: one INTEGER group key, no DISTINCT aggregates.
func (a *HashAggregate) fastKeyable() bool {
	if len(a.GroupBy) != 1 || a.GroupBy[0].Type() != storage.TypeInt64 {
		return false
	}
	for _, ag := range a.Aggs {
		if ag.Distinct {
			return false
		}
	}
	return true
}

func rowsOf(batches []*storage.Batch) int {
	rows := 0
	for _, b := range batches {
		rows += b.Len()
	}
	return rows
}

// collectWindow drains the aggregate's next window: at most size
// non-empty batches, each reserved against the grant when the window
// buffers more than one. A denied batch still joins the window — one
// batch is the working floor — but closes it.
func (a *HashAggregate) collectWindow(size int) (batches []*storage.Batch, reserved int64, err error) {
	for len(batches) < size {
		b, err := a.Input.Next()
		if err != nil || b == nil {
			return batches, reserved, err
		}
		if b.Len() == 0 {
			continue
		}
		batches = append(batches, b)
		if size > 1 {
			n := storage.BatchBytes(b)
			if !a.mt.reserve(n) {
				break
			}
			reserved += n
		}
	}
	return batches, reserved, nil
}

// errFastPathNulls aborts a fast-path window when it discovers NULL or
// non-integer group keys; the fold migrates to the generic path.
var errFastPathNulls = errors.New("exec: aggregate fast path hit a NULL or non-integer group key")

func newAccumulators(aggs []*expr.Aggregate) []*expr.Accumulator {
	accs := make([]*expr.Accumulator, len(aggs))
	for i, ag := range aggs {
		accs[i] = ag.NewAccumulator()
	}
	return accs
}

// Open implements Operator: it consumes the whole input and builds the
// grouped result.
func (a *HashAggregate) Open() error {
	t0 := a.stats.begin()
	err := a.open()
	a.stats.opened(t0)
	return err
}

func (a *HashAggregate) open() error {
	a.Schema()
	a.pos = 0
	a.mt = memTracker{mem: a.Mem}
	if err := a.Input.Open(); err != nil {
		return err
	}
	defer a.Input.Close()
	if len(a.GroupBy) == 0 {
		return a.openScalar()
	}
	return a.openGrouped()
}

// openScalar folds the whole input into the single row of a scalar
// aggregate, in O(1) state.
func (a *HashAggregate) openScalar() error {
	accs := newAccumulators(a.Aggs)
	for {
		b, err := a.Input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			if err := foldRow(accs, a.Aggs, expr.Row{Batch: b, Idx: i}); err != nil {
				return err
			}
		}
	}
	a.result = storage.NewBatch(a.out)
	return a.result.AppendRow(groupRow(nil, accs)...)
}

// aggFold is the grouped fold's state across windows: w hash
// partitions of groups — int64-keyed maps while the fold is on the fast
// path, hash-keyed generic maps after — each with its groups in
// creation order, plus, once group state has outgrown the grant, the
// partitioner that spills the rows of groups that are not resident.
type aggFold struct {
	w         int
	fast      bool
	fastParts []map[int64]*pgroup
	slowParts []map[uint64][]*pgroup
	lists     [][]*pgroup
	spill     *spillPartitioner
}

func (f *aggFold) groups() int {
	n := 0
	for _, list := range f.lists {
		n += len(list)
	}
	return n
}

// openGrouped runs the windowed fold over the whole input. After each
// window it trades the window's batch reservation for the group state
// the window grew; when the grant cannot hold that, the resident set is
// frozen and the fold goes hybrid.
func (a *HashAggregate) openGrouped() error {
	size := 1
	if a.Workers > 1 {
		size = aggWindowBatches
	}
	window, reserved, err := a.collectWindow(size)
	if err != nil {
		return err
	}
	w := splitParts(rowsOf(window), a.Workers)
	f := &aggFold{
		w:         w,
		fast:      a.fastKeyable(),
		fastParts: make([]map[int64]*pgroup, w),
		slowParts: make([]map[uint64][]*pgroup, w),
		lists:     make([][]*pgroup, w),
	}
	for p := 0; p < w; p++ {
		f.fastParts[p] = make(map[int64]*pgroup)
		f.slowParts[p] = make(map[uint64][]*pgroup)
	}
	defer func() {
		if f.spill != nil {
			f.spill.abort()
		}
	}()
	offset := 0
	for len(window) > 0 {
		prevGroups := f.groups()
		if err := a.foldWindow(f, window, offset); err != nil {
			return err
		}
		offset += rowsOf(window)
		a.mt.release(reserved)
		if f.spill == nil && !a.mt.reserve(int64(f.groups()-prevGroups)*a.groupBytes()) {
			f.spill = &spillPartitioner{fs: a.fs(), schema: withIdx(a.Input.Schema())}
		}
		if window, reserved, err = a.collectWindow(size); err != nil {
			return err
		}
	}

	var merged []mergedGroup
	for _, list := range f.lists {
		for _, g := range list {
			merged = append(merged, mergedGroup{first: g.first, row: groupRow(g.keyValues(), g.accs)})
		}
	}
	if f.spill != nil {
		runs, err := f.spill.finish(&a.stats)
		f.spill = nil
		if err != nil {
			return err
		}
		for k, run := range runs {
			if run == nil {
				continue
			}
			err := a.foldSpillRun(run, &merged)
			run.Close()
			if err != nil {
				closeRuns(runs[k+1:])
				return err
			}
		}
	}
	sort.Slice(merged, func(x, y int) bool { return merged[x].first < merged[y].first })
	a.result = storage.NewBatch(a.out)
	for _, g := range merged {
		if err := a.result.AppendRow(g.row...); err != nil {
			return err
		}
	}
	return nil
}

func (a *HashAggregate) fs() storage.SpillFS {
	if a.FS != nil {
		return a.FS
	}
	return storage.DefaultSpillFS
}

// foldWindow folds one window on the fast path, or on the generic path
// once any key has been NULL or non-integer.
func (a *HashAggregate) foldWindow(f *aggFold, window []*storage.Batch, offset int) error {
	if f.fast {
		err := a.foldWindowFast(f, window, offset)
		if err != errFastPathNulls {
			return err
		}
		// Stage 1 rejected the window before any row of it was folded:
		// migrate every group to the generic path and re-fold this
		// window there.
		f.fast = false
		migrateGroups(f)
	}
	return a.foldWindowSlow(f, window, offset)
}

// spillRows writes the flagged rows of each window batch — rows of
// groups that are not resident — to the spill partition their group
// hash selects, tagged with their global row index. A group's rows all
// land in one partition, in row order.
func (a *HashAggregate) spillRows(f *aggFold, window []*storage.Batch, starts []int, spilled [][]bool, hash func(bi, i int) uint64) error {
	for bi, b := range window {
		var rows [spillParts][]int
		for i, s := range spilled[bi] {
			if s {
				k := hash(bi, i) % spillParts
				rows[k] = append(rows[k], i)
			}
		}
		for k, r := range rows {
			if len(r) > 0 {
				if err := f.spill.add(k, tagRows(b, r, int64(starts[bi]), f.spill.schema)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// spillFlags allocates one flag per row of each window batch.
func spillFlags(window []*storage.Batch) [][]bool {
	flags := make([][]bool, len(window))
	for bi, b := range window {
		flags[bi] = make([]bool, b.Len())
	}
	return flags
}

// groupRow is a finished group's output row: its keys, then each
// aggregate's result.
func groupRow(keys []storage.Value, accs []*expr.Accumulator) []storage.Value {
	row := make([]storage.Value, 0, len(keys)+len(accs))
	row = append(row, keys...)
	for _, acc := range accs {
		row = append(row, acc.Result())
	}
	return row
}

// foldRow folds one input row into a group's accumulators.
func foldRow(accs []*expr.Accumulator, aggs []*expr.Aggregate, row expr.Row) error {
	for k, ag := range aggs {
		var v storage.Value
		if ag.Kind == expr.AggCountStar {
			v = storage.Int64(1)
		} else {
			var err error
			v, err = ag.Input.Eval(row)
			if err != nil {
				return err
			}
		}
		accs[k].Add(v)
	}
	return nil
}

// mergedGroup is one group's finished output row plus the global index
// of its first input row, used to restore serial emission order.
type mergedGroup struct {
	first int
	row   []storage.Value
}

// pgroup is one group's persistent fold state in the windowed
// partitioned fold. A group starts on the int64 fast path (keys nil)
// and may migrate to the generic representation mid-stream.
type pgroup struct {
	key   int64           // fast-path key (single non-null INTEGER)
	keys  []storage.Value // generic keys; nil while on the fast path
	hash  uint64          // HashRow(keys), valid once keys is set
	first int             // global index of the group's first input row
	accs  []*expr.Accumulator
}

// keyValues returns the group's key values, boxing a fast-path key.
func (g *pgroup) keyValues() []storage.Value {
	if g.keys != nil {
		return g.keys
	}
	return []storage.Value{storage.Int64(g.key)}
}

// migrateGroups moves every fast-path group to the generic
// representation, re-routing it to the partition its row hash selects
// so future generic folds find it. Accumulated state carries over, so
// no input is re-read.
func migrateGroups(f *aggFold) {
	newLists := make([][]*pgroup, f.w)
	for p, list := range f.lists {
		for _, g := range list {
			g.keys = []storage.Value{storage.Int64(g.key)}
			g.hash = storage.HashRow(g.keys)
			np := int(g.hash % uint64(f.w))
			f.slowParts[np][g.hash] = append(f.slowParts[np][g.hash], g)
			newLists[np] = append(newLists[np], g)
		}
		f.fastParts[p] = nil
	}
	copy(f.lists, newLists)
}

// foldWindowFast folds one window on the int64-key path. It returns
// errFastPathNulls — with no rows of the window folded — when a NULL
// or non-integer key appears. In a hybrid fold, rows of groups that are
// not resident go to the spill instead.
func (a *HashAggregate) foldWindowFast(f *aggFold, window []*storage.Batch, offset int) error {
	type evalBatch struct {
		keys   []int64
		inputs []storage.Column
	}
	evals := make([]evalBatch, len(window))
	errs := make([]error, len(window))
	sched.ForEach(a.Budget, len(window), a.Workers, func(bi int) {
		b := window[bi]
		keyCol, err := expr.EvalVector(a.GroupBy[0], b)
		if err != nil {
			errs[bi] = err
			return
		}
		keys, ok := keyCol.(*storage.Int64Column)
		if !ok || storage.NullsOf(keys).Any() {
			errs[bi] = errFastPathNulls
			return
		}
		ev := evalBatch{keys: keys.Int64s(), inputs: make([]storage.Column, len(a.Aggs))}
		for k, ag := range a.Aggs {
			if ag.Kind == expr.AggCountStar {
				continue
			}
			col, err := expr.EvalVector(ag.Input, b)
			if err != nil {
				errs[bi] = err
				return
			}
			ev.inputs[k] = col
		}
		evals[bi] = ev
	})
	sawNulls := false
	for _, err := range errs {
		if err == errFastPathNulls {
			sawNulls = true
		} else if err != nil {
			return err
		}
	}
	if sawNulls {
		return errFastPathNulls
	}

	starts := windowStarts(window, offset)
	var spilled [][]bool
	if f.spill != nil {
		spilled = spillFlags(window)
	}
	w := f.w
	sched.ForEach(a.Budget, w, a.Workers, func(p int) {
		m := f.fastParts[p]
		for bi := range evals {
			start := starts[bi]
			for i, k := range evals[bi].keys {
				if int(uint64(k)%uint64(w)) != p {
					continue
				}
				g := m[k]
				if g == nil {
					if spilled != nil {
						spilled[bi][i] = true
						continue
					}
					g = &pgroup{key: k, first: start + i, accs: newAccumulators(a.Aggs)}
					m[k] = g
					f.lists[p] = append(f.lists[p], g)
				}
				for ai, ag := range a.Aggs {
					if ag.Kind == expr.AggCountStar {
						g.accs[ai].Add(storage.Int64(1))
						continue
					}
					g.accs[ai].Add(evals[bi].inputs[ai].Value(i))
				}
			}
		}
	})
	if spilled == nil {
		return nil
	}
	return a.spillRows(f, window, starts, spilled, func(bi, i int) uint64 {
		return storage.HashRow([]storage.Value{storage.Int64(evals[bi].keys[i])})
	})
}

// foldWindowSlow folds one window on the generic path: stage 1
// computes key values and hashes per row in parallel; stage 2 folds
// each hash partition on its own worker. In a hybrid fold, rows of
// groups that are not resident go to the spill instead.
func (a *HashAggregate) foldWindowSlow(f *aggFold, window []*storage.Batch, offset int) error {
	type evalBatch struct {
		keys   [][]storage.Value
		hashes []uint64
	}
	evals := make([]evalBatch, len(window))
	errs := make([]error, len(window))
	sched.ForEach(a.Budget, len(window), a.Workers, func(bi int) {
		b := window[bi]
		n := b.Len()
		ev := evalBatch{keys: make([][]storage.Value, n), hashes: make([]uint64, n)}
		for i := 0; i < n; i++ {
			row := expr.Row{Batch: b, Idx: i}
			keys := make([]storage.Value, len(a.GroupBy))
			for k, ge := range a.GroupBy {
				v, err := ge.Eval(row)
				if err != nil {
					errs[bi] = err
					return
				}
				keys[k] = v
			}
			ev.keys[i] = keys
			ev.hashes[i] = storage.HashRow(keys)
		}
		evals[bi] = ev
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	starts := windowStarts(window, offset)
	var spilled [][]bool
	if f.spill != nil {
		spilled = spillFlags(window)
	}
	w := f.w
	perrs := make([]error, w)
	sched.ForEach(a.Budget, w, a.Workers, func(p int) {
		m := f.slowParts[p]
		for bi := range evals {
			b := window[bi]
			start := starts[bi]
			for i, h := range evals[bi].hashes {
				if int(h%uint64(w)) != p {
					continue
				}
				var g *pgroup
				for _, cand := range m[h] {
					if rowsEqual(cand.keys, evals[bi].keys[i]) {
						g = cand
						break
					}
				}
				if g == nil {
					if spilled != nil {
						spilled[bi][i] = true
						continue
					}
					g = &pgroup{keys: evals[bi].keys[i], hash: h, first: start + i, accs: newAccumulators(a.Aggs)}
					m[h] = append(m[h], g)
					f.lists[p] = append(f.lists[p], g)
				}
				if err := foldRow(g.accs, a.Aggs, expr.Row{Batch: b, Idx: i}); err != nil {
					perrs[p] = err
					return
				}
			}
		}
	})
	for _, err := range perrs {
		if err != nil {
			return err
		}
	}
	if spilled == nil {
		return nil
	}
	return a.spillRows(f, window, starts, spilled, func(bi, i int) uint64 {
		return evals[bi].hashes[i]
	})
}

// foldSpillRun folds one spilled partition run with the generic serial
// fold, appending its finished groups to merged. A group's rows all
// sit in one run in row order, so its accumulation order — and the
// first-row index taken from __idx — equal the in-memory fold's.
func (a *HashAggregate) foldSpillRun(run *storage.SpillRun, merged *[]mergedGroup) error {
	is := a.Input.Schema()
	type sgroup struct {
		keys  []storage.Value
		first int
		accs  []*expr.Accumulator
	}
	groups := make(map[uint64][]*sgroup)
	var order []*sgroup
	rr := run.Reader()
	for {
		b, err := rr.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		nc := len(b.Cols) - 1
		core := &storage.Batch{Schema: is, Cols: b.Cols[:nc]}
		idxs := b.Cols[nc].(*storage.Int64Column).Int64s()
		for i := 0; i < b.Len(); i++ {
			row := expr.Row{Batch: core, Idx: i}
			keys := make([]storage.Value, len(a.GroupBy))
			for k, ge := range a.GroupBy {
				v, err := ge.Eval(row)
				if err != nil {
					return err
				}
				keys[k] = v
			}
			h := storage.HashRow(keys)
			var g *sgroup
			for _, cand := range groups[h] {
				if rowsEqual(cand.keys, keys) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &sgroup{keys: keys, first: int(idxs[i]), accs: newAccumulators(a.Aggs)}
				groups[h] = append(groups[h], g)
				order = append(order, g)
			}
			if err := foldRow(g.accs, a.Aggs, row); err != nil {
				return err
			}
		}
	}
	for _, g := range order {
		*merged = append(*merged, mergedGroup{first: g.first, row: groupRow(g.keys, g.accs)})
	}
	return nil
}

// windowStarts computes each window batch's global row offset.
func windowStarts(window []*storage.Batch, offset int) []int {
	starts := make([]int, len(window))
	for i, b := range window {
		starts[i] = offset
		offset += b.Len()
	}
	return starts
}

// Next implements Operator: the grouped result streams out in
// storage.BatchSize batches.
func (a *HashAggregate) Next() (*storage.Batch, error) {
	t0 := a.stats.begin()
	var b *storage.Batch
	if a.result != nil {
		b = NextChunk(a.result, &a.pos, a.result.Len())
	}
	a.stats.record(t0, b)
	return b, nil
}

// Close implements Operator.
func (a *HashAggregate) Close() error {
	a.stats.closed()
	a.result = nil
	a.mt.releaseAll()
	return nil
}
