package exec

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/storage"
)

// countingSource is a splittable batch source that counts every row it
// hands out through a shared counter — the instrument behind the
// LIMIT-short-circuit assertions: an early-exiting plan must stop
// pulling from its sources after O(limit) rows, at any worker count.
type countingSource struct {
	data        *storage.Batch
	part, parts int
	count       *atomic.Int64

	pos, end int
}

func (s *countingSource) Schema() storage.Schema { return s.data.Schema }

func (s *countingSource) Open() error {
	n := s.data.Len()
	s.pos, s.end = 0, n
	if s.parts > 1 {
		s.pos = s.part * n / s.parts
		s.end = (s.part + 1) * n / s.parts
	}
	return nil
}

func (s *countingSource) Next() (*storage.Batch, error) {
	if s.pos >= s.end {
		return nil, nil
	}
	end := s.pos + storage.BatchSize
	if end > s.end {
		end = s.end
	}
	b := s.data.Slice(s.pos, end)
	s.pos = end
	s.count.Add(int64(b.Len()))
	return b, nil
}

func (s *countingSource) Close() error { return nil }

// streamData builds an n-row batch (id INTEGER, k INTEGER, val DOUBLE)
// with k = id % 50.
func streamData(t *testing.T, n int) *storage.Batch {
	t.Helper()
	b := storage.NewBatch(storage.NewSchema(
		storage.NotNullCol("id", storage.TypeInt64),
		storage.NotNullCol("k", storage.TypeInt64),
		storage.Col("val", storage.TypeFloat64),
	))
	for i := 0; i < n; i++ {
		if err := b.AppendRow(storage.Int64(int64(i)), storage.Int64(int64(i%50)),
			storage.Float64(float64(i)*0.5)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func alwaysTrue(s storage.Schema) expr.Expr {
	return gt(&expr.ColumnRef{Name: "val", Index: s.IndexOf("val"), Typ: storage.TypeFloat64}, -1)
}

// TestLimitShortCircuitParallelScan asserts that a LIMIT above a
// Gather of scan fragments stops pulling from the source after a
// bounded number of rows: each fragment runs at most gatherBuffer
// batches ahead, so total source reads are O(limit + workers·buffer),
// not O(table).
func TestLimitShortCircuitParallelScan(t *testing.T) {
	const totalBatches = 300
	data := streamData(t, totalBatches*storage.BatchSize)
	for _, workers := range []int{1, 2, 8} {
		var count atomic.Int64
		frags := make([]Operator, workers)
		for i := range frags {
			frags[i] = &Filter{
				Input: &countingSource{data: data, part: i, parts: workers, count: &count},
				Pred:  alwaysTrue(data.Schema),
			}
		}
		lim := &Limit{Input: &Gather{Fragments: frags}, N: 10, Offset: 0}
		got := mustDrain(t, lim)
		if got.Len() != 10 {
			t.Fatalf("workers=%d: got %d rows, want 10", workers, got.Len())
		}
		bound := int64(workers*(gatherBuffer+4)) * storage.BatchSize
		if c := count.Load(); c > bound {
			t.Fatalf("workers=%d: LIMIT 10 pulled %d source rows, want <= %d (total %d)",
				workers, c, bound, data.Len())
		}
	}
}

// TestLimitStreamingHashJoin: a LIMIT 10 over a hash join pulls at
// most two probe batches, at any worker count — the join has one probe
// path, so a LIMIT does not change how it runs — and returns exactly the
// first rows of the full join, which itself reads the probe side once.
func TestLimitStreamingHashJoin(t *testing.T) {
	data := streamData(t, 200*storage.BatchSize)
	right := streamData(t, 50) // k column matches ids 0..49
	join := func(workers int, count *atomic.Int64) *HashJoin {
		return &HashJoin{
			Left: &countingSource{data: data, parts: 1, count: count}, Right: &BatchSource{Data: right},
			LeftKeys: []int{1}, RightKeys: []int{0}, Type: InnerJoin, Workers: workers,
		}
	}
	for _, workers := range []int{1, 2} {
		var lcount, fcount atomic.Int64
		got := mustDrain(t, &Limit{N: 10, Input: join(workers, &lcount)})
		full := mustDrain(t, join(workers, &fcount))
		label := fmt.Sprintf("workers=%d", workers)
		sameBatches(t, label+": LIMIT 10 vs the full join's first rows", got, full.Slice(0, 10))
		if got.Len() != 10 {
			t.Fatalf("%s: got %d rows, want 10", label, got.Len())
		}
		if c := lcount.Load(); c > 2*storage.BatchSize {
			t.Fatalf("%s: LIMIT 10 pulled %d probe rows, want <= %d", label, c, 2*storage.BatchSize)
		}
		if c := fcount.Load(); c != int64(data.Len()) {
			t.Fatalf("%s: full join read %d probe rows, want %d", label, c, data.Len())
		}
	}
}

// TestStreamingJoinFullParity drains hash joins completely — inner and
// left, nullable keys of two types, with and without a residual, cloned
// over probe morsels at workers 1, 2 and 8 — and demands results
// byte-identical to the NestedLoopJoin oracle over the same ON.
func TestStreamingJoinFullParity(t *testing.T) {
	lowMorselRows(t)
	left := testTable(t, "l", 700, 21)
	right := testTable(t, "r", 90, 22)
	ls := left.Schema()
	out := joinSchema(ls, right.Schema())
	ref := func(i int) *expr.ColumnRef {
		return &expr.ColumnRef{Name: out.Cols[i].Name, Index: i, Typ: out.Cols[i].Type}
	}
	and := func(a, b expr.Expr) expr.Expr {
		e, err := expr.NewBinary(expr.OpAnd, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	eq := func(l, r int) expr.Expr {
		e, err := expr.NewBinary(expr.OpEq, ref(l), ref(ls.Len()+r))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// grp (INTEGER) and tag (VARCHAR) are both nullable.
	keys := and(eq(1, 1), eq(3, 3))
	residual := gt(ref(ls.Len()+2), 0) // r.val > 0
	for _, jt := range []JoinType{InnerJoin, LeftJoin} {
		for _, res := range []expr.Expr{nil, residual} {
			on := keys
			if res != nil {
				on = and(keys, res)
			}
			want := mustDrain(t, &NestedLoopJoin{Left: NewTableScan(left), Right: NewTableScan(right), Type: jt, On: on})
			for _, workers := range []int{1, 2, 8} {
				j := &HashJoin{
					Left: NewTableScan(left), Right: NewTableScan(right),
					LeftKeys: []int{1, 3}, RightKeys: []int{1, 3},
					Type: jt, Residual: res, Workers: workers,
				}
				label := fmt.Sprintf("type=%d residual=%v workers=%d", jt, res != nil, workers)
				sameBatches(t, label, mustDrain(t, Parallelize(j, workers, nil)), want)
			}
		}
	}
}

// TestLimitUnderAggregate asserts a LIMIT inside an aggregate's input
// (SELECT agg FROM (... LIMIT 10)) bounds source reads: the aggregate
// consumes 10 rows, so the scan reads one batch.
func TestLimitUnderAggregate(t *testing.T) {
	data := streamData(t, 200*storage.BatchSize)
	var count atomic.Int64
	agg := &HashAggregate{
		Input: &Limit{Input: &countingSource{data: data, parts: 1, count: &count}, N: 10},
		GroupBy: []expr.Expr{
			&expr.ColumnRef{Name: "k", Index: 1, Typ: storage.TypeInt64},
		},
		Aggs:  []*expr.Aggregate{{Kind: expr.AggCountStar}},
		Names: []string{"k", "n"},
	}
	got := mustDrain(t, agg)
	if got.Len() != 10 { // ids 0..9 → 10 distinct k values
		t.Fatalf("got %d groups, want 10", got.Len())
	}
	if c := count.Load(); c > 2*storage.BatchSize {
		t.Fatalf("aggregate over LIMIT 10 pulled %d source rows, want <= %d", c, 2*storage.BatchSize)
	}
}

// TestSortParallelMatchesSerial checks the per-morsel parallel sort +
// pairwise merge is byte-identical to the serial stable sort (ties
// carry rows with distinct ids, so instability would reorder them) and
// that sorted output streams in bounded batches.
func TestSortParallelMatchesSerial(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 3000, 31)
	keys := []storage.SortKey{{Col: 1}, {Col: 3, Desc: true}} // grp ASC, tag DESC: many ties
	want := mustDrain(t, &Sort{Input: NewTableScan(tb), Keys: keys})
	for _, workers := range []int{2, 3, 8} {
		s := &Sort{Input: NewTableScan(tb), Keys: keys, Workers: workers}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		got := storage.NewBatch(s.Schema())
		for {
			b, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if b.Len() > storage.BatchSize {
				t.Fatalf("workers=%d: sort emitted a %d-row batch, want <= %d",
					workers, b.Len(), storage.BatchSize)
			}
			if err := storage.Concat(got, b); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		sameBatches(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// openTracker records when an operator is opened.
type openTracker struct {
	Operator
	opened *bool
}

func (o *openTracker) Open() error {
	*o.opened = true
	return o.Operator.Open()
}

// TestUnionAllOpensInputsLazily asserts input i+1 is not opened until
// input i is exhausted, bounding peak memory when inputs are blocking
// (per-superstep Sorts in the table-union path).
func TestUnionAllOpensInputsLazily(t *testing.T) {
	a := streamData(t, 8)
	b := streamData(t, 4)
	var aOpened, bOpened bool
	u := &UnionAll{Inputs: []Operator{
		&openTracker{Operator: &BatchSource{Data: a}, opened: &aOpened},
		&openTracker{Operator: &Sort{Input: &BatchSource{Data: b}, Keys: []storage.SortKey{{Col: 0}}}, opened: &bOpened},
	}}
	if err := u.Open(); err != nil {
		t.Fatal(err)
	}
	if bOpened {
		t.Fatal("UnionAll.Open eagerly opened input 1")
	}
	first, err := u.Next()
	if err != nil || first == nil {
		t.Fatalf("first batch: %v %v", first, err)
	}
	if !aOpened {
		t.Fatal("input 0 should be open after the first batch")
	}
	if bOpened {
		t.Fatal("input 1 opened before input 0 was exhausted")
	}
	rows := first.Len()
	for {
		nb, err := u.Next()
		if err != nil {
			t.Fatal(err)
		}
		if nb == nil {
			break
		}
		rows += nb.Len()
	}
	if !bOpened {
		t.Fatal("input 1 never opened")
	}
	if rows != a.Len()+b.Len() {
		t.Fatalf("got %d rows, want %d", rows, a.Len()+b.Len())
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
}

// lowAggWindow shrinks the aggregate fold window so test-sized inputs
// exercise the windowed path.
func lowAggWindow(t *testing.T) {
	t.Helper()
	old := aggWindowBatches
	aggWindowBatches = 2
	t.Cleanup(func() { aggWindowBatches = old })
}

// TestAggregateWindowedMatchesSerial drives the bounded-window
// partitioned fold (input ≫ window) against the serial fold for the
// fast path, the generic path, and the mid-stream fast→generic
// migration, at several worker counts.
func TestAggregateWindowedMatchesSerial(t *testing.T) {
	lowMorselRows(t)
	lowAggWindow(t)

	t.Run("fast path", func(t *testing.T) {
		tb := testTable(t, "t", 6000, 41)
		s := tb.Schema()
		group := []expr.Expr{colRef(s, "id")} // NOT NULL int key
		aggs := []*expr.Aggregate{{Kind: expr.AggCountStar}, {Kind: expr.AggSum, Input: colRef(s, "val")}}
		names := []string{"id", "c", "s"}
		want := mustDrain(t, makeAgg(tb, group, aggs, names, 0))
		for _, workers := range []int{2, 8} {
			got := mustDrain(t, makeAgg(tb, group, aggs, names, workers))
			sameBatches(t, fmt.Sprintf("workers=%d", workers), got, want)
		}
	})

	t.Run("generic path", func(t *testing.T) {
		tb := testTable(t, "t", 6000, 42)
		s := tb.Schema()
		group := []expr.Expr{colRef(s, "tag"), colRef(s, "grp")}
		aggs := []*expr.Aggregate{
			{Kind: expr.AggCount, Input: colRef(s, "id"), Distinct: true},
			{Kind: expr.AggAvg, Input: colRef(s, "val")},
		}
		names := []string{"tag", "grp", "dc", "a"}
		want := mustDrain(t, makeAgg(tb, group, aggs, names, 0))
		for _, workers := range []int{2, 8} {
			got := mustDrain(t, makeAgg(tb, group, aggs, names, workers))
			sameBatches(t, fmt.Sprintf("workers=%d", workers), got, want)
		}
	})

	t.Run("late null migrates fast to generic", func(t *testing.T) {
		// NULL keys appear only in the last batch: the windowed fold
		// starts on the int64 fast path and must migrate every group's
		// accumulated state mid-stream.
		tb := storage.NewTable("m", storage.NewSchema(
			storage.Col("g", storage.TypeInt64),
			storage.Col("v", storage.TypeFloat64),
		))
		n := 6 * storage.BatchSize
		for i := 0; i < n; i++ {
			g := storage.Int64(int64(i % 97))
			if i >= n-100 && i%3 == 0 {
				g = storage.Null(storage.TypeInt64)
			}
			if err := tb.AppendRow(g, storage.Float64(float64(i)*0.25)); err != nil {
				t.Fatal(err)
			}
		}
		s := tb.Schema()
		group := []expr.Expr{colRef(s, "g")}
		aggs := []*expr.Aggregate{{Kind: expr.AggSum, Input: colRef(s, "v")}, {Kind: expr.AggCountStar}}
		names := []string{"g", "s", "c"}
		want := mustDrain(t, makeAgg(tb, group, aggs, names, 0))
		for _, workers := range []int{2, 8} {
			got := mustDrain(t, makeAgg(tb, group, aggs, names, workers))
			sameBatches(t, fmt.Sprintf("workers=%d", workers), got, want)
		}
	})
}

// TestCancelMidStreamReleasesBudget cancels parallel plans mid-stream
// and asserts every borrowed worker-budget slot is returned — both for
// a plain Gather and for a Gather over join clones.
func TestCancelMidStreamReleasesBudget(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 4000, 51)
	right := testTable(t, "r", 60, 52)

	plans := map[string]func(budget *sched.Budget) Operator{
		"scan": func(budget *sched.Budget) Operator {
			return Parallelize(pipeline(tb), 8, budget)
		},
		"join clones": func(budget *sched.Budget) Operator {
			j := &HashJoin{Left: NewTableScan(tb), Right: NewTableScan(right),
				LeftKeys: []int{0}, RightKeys: []int{1}, Type: InnerJoin}
			f := &Filter{Input: j, Pred: gt(&expr.ColumnRef{Name: "val", Index: 2, Typ: storage.TypeFloat64}, -2)}
			return Parallelize(f, 8, budget)
		},
	}
	for name, build := range plans {
		budget := sched.NewBudget(4)
		ctx, cancel := context.WithCancel(context.Background())
		op := WithContext(ctx, build(budget))
		if err := op.Open(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := op.Next(); err != nil {
			t.Fatalf("%s: first batch: %v", name, err)
		}
		cancel()
		for {
			b, err := op.Next()
			if err != nil || b == nil {
				break // cancellation landed (or the stream ended)
			}
		}
		if err := op.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if inUse := budget.InUse(); inUse != 0 {
			t.Fatalf("%s: %d budget slots leaked after cancel", name, inUse)
		}
	}
}

// TestHashJoinMemoryBound: a join under COUNT(*) holds its build side
// and O(batch) of probe per fragment, never the probe side — under an
// unlimited grant the reservation high-water mark stays within the
// build's bytes plus 8 probe batches, at workers 1 and 2.
func TestHashJoinMemoryBound(t *testing.T) {
	lowMorselRows(t)
	data := streamData(t, 256*storage.BatchSize)
	build := streamData(t, 100) // ids 0..99 cover every probe k (0..49)
	buildBytes := storage.BatchBytes(build)
	batchBytes := storage.BatchBytes(data.Slice(0, storage.BatchSize))
	for _, workers := range []int{1, 2} {
		mem := sched.NewMemBudget(0)
		j := &HashJoin{
			Left: &BatchSource{Data: data}, Right: &BatchSource{Data: build},
			LeftKeys: []int{1}, RightKeys: []int{0}, Type: InnerJoin, Workers: workers, Mem: mem,
		}
		in := Parallelize(j, workers, nil)
		if _, ok := in.(*Gather); ok != (workers > 1) {
			t.Fatalf("workers=%d: join planned as %T", workers, in)
		}
		out := mustDrain(t, &HashAggregate{
			Input: in, Aggs: []*expr.Aggregate{{Kind: expr.AggCountStar}},
			Names: []string{"n"}, Workers: workers, Mem: mem,
		})
		if n := out.Cols[0].Value(0).I; n != int64(data.Len()) {
			t.Fatalf("workers=%d: COUNT(*) = %d, want %d", workers, n, data.Len())
		}
		if hw, bound := mem.HighWater(), buildBytes+8*batchBytes; hw > bound {
			t.Fatalf("workers=%d: high-water %d bytes, want <= %d (build %d + 8 probe batches of %d)",
				workers, hw, bound, buildBytes, batchBytes)
		}
	}
}
