package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/storage"
)

// lowMorselRows forces morsel splitting on test-sized inputs.
func lowMorselRows(t *testing.T) {
	t.Helper()
	old := MinMorselRows
	MinMorselRows = 16
	t.Cleanup(func() { MinMorselRows = old })
}

// testTable builds an n-row table (id INTEGER, grp INTEGER nullable,
// val DOUBLE nullable, tag VARCHAR) with seeded content.
func testTable(t *testing.T, name string, n int, seed int64) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := storage.NewTable(name, storage.NewSchema(
		storage.NotNullCol("id", storage.TypeInt64),
		storage.Col("grp", storage.TypeInt64),
		storage.Col("val", storage.TypeFloat64),
		storage.Col("tag", storage.TypeString),
	))
	for i := 0; i < n; i++ {
		grp := storage.Int64(int64(rng.Intn(13)))
		if rng.Intn(25) == 0 {
			grp = storage.Null(storage.TypeInt64)
		}
		val := storage.Float64(rng.NormFloat64())
		if rng.Intn(30) == 0 {
			val = storage.Null(storage.TypeFloat64)
		}
		if err := tb.AppendRow(storage.Int64(int64(i)), grp, val,
			storage.Str(fmt.Sprintf("tag%d", rng.Intn(4)))); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// gt builds the predicate col > lit.
func gt(c *expr.ColumnRef, v float64) expr.Expr {
	return &expr.Binary{Op: expr.OpGt, L: c, R: &expr.Literal{Val: storage.Float64(v)}, Typ: storage.TypeBool}
}

// mustDrain drains an operator or fails the test.
func mustDrain(t *testing.T, op Operator) *storage.Batch {
	t.Helper()
	b, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameBatches asserts two batches are identical: schema arity, row
// count, order and every value.
func sameBatches(t *testing.T, label string, got, want *storage.Batch) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: arity %d vs %d", label, len(got.Cols), len(want.Cols))
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: rows %d vs %d", label, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		for j := range got.Cols {
			gv, wv := got.Cols[j].Value(i), want.Cols[j].Value(i)
			if gv.Null != wv.Null || (!gv.Null && storage.Compare(gv, wv) != 0) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, gv, wv)
			}
		}
	}
}

// pipeline builds Filter(val > 0) → Project(id, val*2) over a scan.
func pipeline(tb *storage.Table) Operator {
	s := tb.Schema()
	f := &Filter{Input: NewTableScan(tb), Pred: gt(colRef(s, "val"), 0)}
	mul := &expr.Binary{Op: expr.OpMul, L: colRef(s, "val"),
		R: &expr.Literal{Val: storage.Float64(2)}, Typ: storage.TypeFloat64}
	p, err := NewProject(f, []expr.Expr{colRef(s, "id"), mul}, []string{"id", "v2"})
	if err != nil {
		panic(err)
	}
	return p
}

func TestParallelizeMatchesSerial(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 500, 1)
	want := mustDrain(t, pipeline(tb))
	for _, workers := range []int{2, 3, 8} {
		op := Parallelize(pipeline(tb), workers, nil)
		if _, ok := op.(*Gather); !ok {
			t.Fatalf("workers=%d: Parallelize returned %T, want *Gather", workers, op)
		}
		sameBatches(t, fmt.Sprintf("workers=%d", workers), mustDrain(t, op), want)
	}
}

func TestParallelizeLeavesBareScanAlone(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 500, 1)
	if op := Parallelize(NewTableScan(tb), 8, nil); op != nil {
		if _, ok := op.(*Gather); ok {
			t.Fatal("a bare scan has no compute to parallelize; expected no Gather")
		}
	}
	if op := Parallelize(pipeline(tb), 1, nil); op != nil {
		if _, ok := op.(*Gather); ok {
			t.Fatal("workers=1 must stay serial")
		}
	}
}

func TestGatherReopen(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 300, 2)
	op := Parallelize(pipeline(tb), 4, nil)
	first := mustDrain(t, op)
	second := mustDrain(t, op) // Drain opens and closes again
	sameBatches(t, "reopen", second, first)
}

type errOp struct {
	schema storage.Schema
	calls  int
}

func (e *errOp) Schema() storage.Schema { return e.schema }
func (e *errOp) Open() error            { return nil }
func (e *errOp) Next() (*storage.Batch, error) {
	e.calls++
	if e.calls > 2 {
		return nil, fmt.Errorf("boom")
	}
	b := storage.NewBatch(e.schema)
	_ = b.AppendRow(storage.Int64(1))
	return b, nil
}
func (e *errOp) Close() error { return nil }

func TestGatherPropagatesFragmentError(t *testing.T) {
	schema := storage.NewSchema(storage.Col("x", storage.TypeInt64))
	g := &Gather{Fragments: []Operator{
		&errOp{schema: schema}, &errOp{schema: schema},
	}}
	_, err := Drain(g)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestGatherInlineWithoutWorkers: when the budget grants no extra
// worker, a Gather runs its fragments on the caller's goroutine (no
// pool goroutine is started) and still emits the serial rows in order,
// stops at a fragment's error, and survives an early Close + reopen.
func TestGatherInlineWithoutWorkers(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 500, 1)
	want := mustDrain(t, pipeline(tb))
	budget := sched.NewBudget(1)
	if budget.TryAcquire(1) != 1 {
		t.Fatal("could not exhaust the budget")
	}
	g, ok := Parallelize(pipeline(tb), 4, budget).(*Gather)
	if !ok {
		t.Fatal("expected a Gather")
	}
	before := runtime.NumGoroutine()
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	if g.PoolSize() != 1 || runtime.NumGoroutine() != before {
		t.Fatalf("pool %d, goroutines %d -> %d: want an inline Gather", g.PoolSize(), before, runtime.NumGoroutine())
	}
	if b, err := g.Next(); err != nil || b == nil {
		t.Fatalf("first batch: %v, %v", b, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	sameBatches(t, "inline", mustDrain(t, g), want)
	if budget.InUse() != 1 {
		t.Fatalf("budget in use %d after Close, want the 1 held outside", budget.InUse())
	}

	schema := storage.NewSchema(storage.Col("x", storage.TypeInt64))
	eg := &Gather{Budget: budget, Fragments: []Operator{&errOp{schema: schema}, &errOp{schema: schema}}}
	if _, err := Drain(eg); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

func makeJoin(left, right *storage.Table, jt JoinType, residual expr.Expr, workers int) *HashJoin {
	return &HashJoin{
		Left: NewTableScan(left), Right: NewTableScan(right),
		LeftKeys: []int{1}, RightKeys: []int{0}, // left.grp = right.id
		Type: jt, Residual: residual, Workers: workers,
	}
}

func TestParallelHashJoinFastPath(t *testing.T) {
	lowMorselRows(t)
	// Join on NOT NULL int columns to hit the fast path: left.id = right.id % bucket.
	left := testTable(t, "l", 700, 3)
	right := testTable(t, "r", 90, 4)
	for _, jt := range []JoinType{InnerJoin, LeftJoin} {
		serial := &HashJoin{Left: NewTableScan(left), Right: NewTableScan(right),
			LeftKeys: []int{0}, RightKeys: []int{1}, Type: jt}
		want := mustDrain(t, serial)
		for _, workers := range []int{2, 8} {
			par := &HashJoin{Left: NewTableScan(left), Right: NewTableScan(right),
				LeftKeys: []int{0}, RightKeys: []int{1}, Type: jt, Workers: workers}
			sameBatches(t, fmt.Sprintf("type=%d workers=%d", jt, workers), mustDrain(t, par), want)
		}
	}
}

func TestParallelHashJoinSlowPath(t *testing.T) {
	lowMorselRows(t)
	left := testTable(t, "l", 400, 5)
	right := testTable(t, "r", 80, 6)
	// A residual forces the generic probe; keys are nullable so NULL
	// handling is exercised too.
	residual := func(out storage.Schema) expr.Expr {
		return gt(&expr.ColumnRef{Name: "val", Index: 2, Typ: storage.TypeFloat64}, 0)
	}
	for _, jt := range []JoinType{InnerJoin, LeftJoin} {
		serial := makeJoin(left, right, jt, residual(storage.Schema{}), 0)
		want := mustDrain(t, serial)
		for _, workers := range []int{2, 8} {
			par := makeJoin(left, right, jt, residual(storage.Schema{}), workers)
			sameBatches(t, fmt.Sprintf("type=%d workers=%d", jt, workers), mustDrain(t, par), want)
		}
	}
}

// TestParallelSlowJoinNoMatches: join clones whose residual never
// holds serve an empty result after one pass over the probe side — no
// clone probes twice or falls back to a serial re-probe.
func TestParallelSlowJoinNoMatches(t *testing.T) {
	lowMorselRows(t)
	left := testTable(t, "l", 400, 12)
	right := testTable(t, "r", 50, 13)
	never := gt(&expr.ColumnRef{Name: "val", Index: 2, Typ: storage.TypeFloat64}, 1e18)
	op := Parallelize(makeJoin(left, right, InnerJoin, never, 8), 8, nil)
	g, ok := op.(*Gather)
	if !ok {
		t.Fatalf("join over a splittable probe should clone under a Gather, got %T", op)
	}
	if b := mustDrain(t, g); b.Len() != 0 {
		t.Fatalf("never-true residual produced %d rows", b.Len())
	}
	var probe int64
	for _, f := range g.Fragments {
		_, p := f.(*HashJoin).BuildProbeRows()
		probe += p
	}
	if probe != int64(left.NumRows()) {
		t.Fatalf("clones probed %d rows, want %d (one pass)", probe, left.NumRows())
	}
}

func makeAgg(tb *storage.Table, groupBy []expr.Expr, aggs []*expr.Aggregate, names []string, workers int) *HashAggregate {
	return &HashAggregate{Input: NewTableScan(tb), GroupBy: groupBy, Aggs: aggs, Names: names, Workers: workers}
}

func TestParallelAggregateFastPath(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 900, 7)
	s := tb.Schema()
	group := []expr.Expr{colRef(s, "id")} // NOT NULL int key → fast path
	aggs := []*expr.Aggregate{
		{Kind: expr.AggCountStar},
		{Kind: expr.AggSum, Input: colRef(s, "val")},
		{Kind: expr.AggMin, Input: colRef(s, "val")},
	}
	names := []string{"id", "c", "s", "m"}
	want := mustDrain(t, makeAgg(tb, group, aggs, names, 0))
	for _, workers := range []int{2, 8} {
		got := mustDrain(t, makeAgg(tb, group, aggs, names, workers))
		sameBatches(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

func TestParallelAggregateNullableKeyFallsBack(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 900, 8)
	s := tb.Schema()
	group := []expr.Expr{colRef(s, "grp")} // nullable → generic partitioned fold
	aggs := []*expr.Aggregate{
		{Kind: expr.AggCount, Input: colRef(s, "val")},
		{Kind: expr.AggAvg, Input: colRef(s, "val")},
		{Kind: expr.AggMax, Input: colRef(s, "val")},
	}
	names := []string{"grp", "c", "a", "m"}
	want := mustDrain(t, makeAgg(tb, group, aggs, names, 0))
	for _, workers := range []int{2, 8} {
		got := mustDrain(t, makeAgg(tb, group, aggs, names, workers))
		sameBatches(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

func TestParallelAggregateMultiKeyAndDistinct(t *testing.T) {
	lowMorselRows(t)
	tb := testTable(t, "t", 900, 9)
	s := tb.Schema()
	group := []expr.Expr{colRef(s, "tag"), colRef(s, "grp")}
	aggs := []*expr.Aggregate{
		{Kind: expr.AggCount, Input: colRef(s, "id"), Distinct: true},
		{Kind: expr.AggSum, Input: colRef(s, "val")},
	}
	names := []string{"tag", "grp", "dc", "s"}
	want := mustDrain(t, makeAgg(tb, group, aggs, names, 0))
	for _, workers := range []int{2, 8} {
		got := mustDrain(t, makeAgg(tb, group, aggs, names, workers))
		sameBatches(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

func TestSpoolSplitOverJoin(t *testing.T) {
	lowMorselRows(t)
	left := testTable(t, "l", 600, 10)
	right := testTable(t, "r", 60, 11)
	build := func(workers int) Operator {
		j := &HashJoin{Left: NewTableScan(left), Right: NewTableScan(right),
			LeftKeys: []int{0}, RightKeys: []int{1}, Type: InnerJoin, Workers: workers}
		f := &Filter{Input: j, Pred: gt(&expr.ColumnRef{Name: "val", Index: 2, Typ: storage.TypeFloat64}, -0.5)}
		return Parallelize(f, workers, nil)
	}
	want := mustDrain(t, build(0))
	for _, workers := range []int{2, 8} {
		op := build(workers)
		if _, ok := op.(*Gather); !ok {
			t.Fatalf("workers=%d: filter over join should split, got %T", workers, op)
		}
		sameBatches(t, fmt.Sprintf("workers=%d", workers), mustDrain(t, op), want)
	}
}
