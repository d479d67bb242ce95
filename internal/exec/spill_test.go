package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/sched"
	"repro/internal/storage"
)

// Out-of-core executor tests: every spilling operator must produce
// byte-identical results under a force-spill memory grant, at any
// worker count, and report its spill activity through OpStats.

const spillTestBudget = 64 << 10

func bigTable(t *testing.T, rows int) *storage.Table {
	t.Helper()
	tb := storage.NewTable("big", storage.NewSchema(
		storage.Col("k", storage.TypeInt64),
		storage.Col("g", storage.TypeInt64),
		storage.Col("s", storage.TypeString),
	))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		if err := tb.AppendRow(
			iv(rng.Int63n(int64(rows/3+1))),
			iv(int64(i%97)),
			sv(fmt.Sprintf("payload-%06d", rng.Intn(rows))),
		); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func assertSameBatches(t *testing.T, label string, got, want *storage.Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for r := 0; r < want.Len(); r++ {
		gr, wr := got.Row(r), want.Row(r)
		for c := range wr {
			g, w := gr[c], wr[c]
			if g.Null != w.Null || g.I != w.I || g.F != w.F || g.S != w.S {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, r, c, g, w)
			}
		}
	}
}

func TestSortSpillByteIdentical(t *testing.T) {
	tb := bigTable(t, 20000)
	keys := []storage.SortKey{{Col: 0}, {Col: 2, Desc: true}}
	want, err := Drain(&Sort{Input: NewTableScan(tb), Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		s := &Sort{Input: NewTableScan(tb), Keys: keys, Workers: workers,
			Mem: sched.NewMemBudget(spillTestBudget)}
		got, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatches(t, fmt.Sprintf("sort workers=%d", workers), got, want)
		if s.stats.SpillRuns.Load() == 0 {
			t.Fatalf("workers=%d: 64KB sort of ~1MB input did not spill", workers)
		}
	}
}

func TestSortTinyGrantStillSorts(t *testing.T) {
	// A grant too small for even one batch must degrade to runs-per-batch,
	// not deadlock or error: the working floor keeps one batch unreserved.
	tb := bigTable(t, 5000)
	keys := []storage.SortKey{{Col: 0}}
	want, err := Drain(&Sort{Input: NewTableScan(tb), Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(&Sort{Input: NewTableScan(tb), Keys: keys, Mem: sched.NewMemBudget(1)})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatches(t, "tiny-grant sort", got, want)
}

func joinInputs(t *testing.T, rows int) (*storage.Table, *storage.Table) {
	t.Helper()
	l := storage.NewTable("l", storage.NewSchema(intCol("lk"), intCol("lv")))
	r := storage.NewTable("r", storage.NewSchema(intCol("rk"), storage.Col("rs", storage.TypeString)))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		if err := l.AppendRow(iv(rng.Int63n(int64(rows/4+1))), iv(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := r.AppendRow(iv(rng.Int63n(int64(rows/4+1))), sv(fmt.Sprintf("r-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return l, r
}

func TestHashJoinGraceByteIdentical(t *testing.T) {
	l, r := joinInputs(t, 12000)
	mk := func(workers int, mem *sched.MemBudget) *HashJoin {
		return &HashJoin{
			Left: NewTableScan(l), Right: NewTableScan(r),
			LeftKeys: []int{0}, RightKeys: []int{0},
			Type: InnerJoin, Workers: workers, Mem: mem,
		}
	}
	want, err := Drain(mk(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("degenerate join fixture")
	}
	// Cloned over probe morsels, the spilled join still runs once.
	lowMorselRows(t)
	for _, workers := range []int{1, 2, 8} {
		op := Parallelize(mk(workers, sched.NewMemBudget(spillTestBudget)), workers, nil)
		got, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatches(t, fmt.Sprintf("grace join workers=%d", workers), got, want)
		var runs int64
		forEachStats(op, func(s *OpStats) { runs += s.SpillRuns.Load() })
		if runs == 0 || runs > 3*spillParts {
			t.Fatalf("workers=%d: 64KB join wrote %d spill runs, want 1..%d", workers, runs, 3*spillParts)
		}
	}
}

func TestHashJoinGraceLeftJoinWithResidual(t *testing.T) {
	l, r := joinInputs(t, 8000)
	residual := func() expr.Expr {
		// l.lv % 3 <> 0 over the combined row (col 1 is lv).
		m, err := expr.NewBinary(expr.OpMod, &expr.ColumnRef{Name: "lv", Index: 1, Typ: storage.TypeInt64},
			&expr.Literal{Val: iv(3)})
		if err != nil {
			t.Fatal(err)
		}
		ne, err := expr.NewBinary(expr.OpNe, m, &expr.Literal{Val: iv(0)})
		if err != nil {
			t.Fatal(err)
		}
		return ne
	}
	mk := func(mem *sched.MemBudget) *HashJoin {
		return &HashJoin{
			Left: NewTableScan(l), Right: NewTableScan(r),
			LeftKeys: []int{0}, RightKeys: []int{0},
			Type: LeftJoin, Residual: residual(), Mem: mem,
		}
	}
	want, err := Drain(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(mk(sched.NewMemBudget(spillTestBudget)))
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatches(t, "grace left join", got, want)
}

func TestHashAggregateSpillByteIdentical(t *testing.T) {
	tb := bigTable(t, 20000)
	mk := func(workers int, mem *sched.MemBudget) (*HashAggregate, error) {
		sc := NewTableScan(tb)
		g := colRef(tb.Schema(), "s")
		k := colRef(tb.Schema(), "k")
		cnt := &expr.Aggregate{Kind: expr.AggCountStar}
		sum := &expr.Aggregate{Kind: expr.AggSum, Input: k}
		return &HashAggregate{
			Input: sc, GroupBy: []expr.Expr{g}, Aggs: []*expr.Aggregate{cnt, sum},
			Names: []string{"s", "c", "t"}, Workers: workers, Mem: mem,
		}, nil
	}
	base, err := mk(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		a, err := mk(workers, sched.NewMemBudget(spillTestBudget))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Drain(a)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatches(t, fmt.Sprintf("agg workers=%d", workers), got, want)
		if a.stats.SpillRuns.Load() == 0 {
			t.Fatalf("workers=%d: 64KB aggregate did not spill", workers)
		}
	}
}

// projectedAgg projects a grouped aggregate with one group per row of
// l, folded at workers. It returns the aggregate too, for its stats.
func projectedAgg(t *testing.T, l *storage.Table, workers int, mem *sched.MemBudget) (Operator, *HashAggregate) {
	t.Helper()
	agg := &HashAggregate{
		Input:   NewTableScan(l),
		GroupBy: []expr.Expr{colRef(l.Schema(), "lv")},
		Aggs:    []*expr.Aggregate{{Kind: expr.AggCountStar}},
		Names:   []string{"lv", "n"}, Workers: workers, Mem: mem,
	}
	p, err := NewProject(agg, []expr.Expr{
		&expr.ColumnRef{Name: "lv", Index: 0, Typ: storage.TypeInt64},
		&expr.ColumnRef{Name: "n", Index: 1, Typ: storage.TypeInt64},
	}, []string{"lv", "n"})
	if err != nil {
		t.Fatal(err)
	}
	return p, agg
}

// TestSpoolOverflowByteIdentical: a projection over an aggregate whose
// result overflows a 64KB grant is not split into morsels (no spool
// buffers the groups any more); it reads the aggregate, whose own
// spill runs keep the rows byte-identical to a serial, unlimited run.
func TestSpoolOverflowByteIdentical(t *testing.T) {
	l, _ := joinInputs(t, 10000)
	base, _ := projectedAgg(t, l, 1, nil)
	want, err := Drain(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		mem := sched.NewMemBudget(spillTestBudget)
		p, agg := projectedAgg(t, l, workers, mem)
		op := Parallelize(p, workers, nil)
		if op != p {
			t.Fatalf("workers=%d: project-over-aggregate was rewritten to %T, want the projection itself", workers, op)
		}
		got, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatches(t, fmt.Sprintf("project over aggregate workers=%d", workers), got, want)
		if agg.stats.SpillRuns.Load() == 0 {
			t.Fatalf("workers=%d: 64KB aggregate of %d groups stayed in memory", workers, want.Len())
		}
	}
}

// TestSpoolReopenAfterOverflow: a second Open of the same spilled
// project-over-aggregate tree — a cached plan run again — returns the
// same rows.
func TestSpoolReopenAfterOverflow(t *testing.T) {
	l, _ := joinInputs(t, 6000)
	mem := sched.NewMemBudget(spillTestBudget)
	p, agg := projectedAgg(t, l, 4, mem)
	op := Parallelize(p, 4, nil)
	first, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if agg.stats.SpillRuns.Load() == 0 {
		t.Fatal("64KB aggregate stayed in memory")
	}
	second, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatches(t, "re-open after overflow", second, first)
}

func TestDistinctOutOfMemoryBudget(t *testing.T) {
	tb := bigTable(t, 8000)
	_, err := Drain(&Distinct{Input: NewTableScan(tb), Mem: sched.NewMemBudget(1 << 10)})
	if !errors.Is(err, ErrOutOfMemoryBudget) {
		t.Fatalf("distinct over budget: %v", err)
	}
	// Unlimited still works.
	if _, err := Drain(&Distinct{Input: NewTableScan(tb)}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedLoopJoinBuildOutOfMemoryBudget(t *testing.T) {
	l, r := joinInputs(t, 4000)
	_, err := Drain(&NestedLoopJoin{
		Left: NewTableScan(l), Right: NewTableScan(r),
		Type: InnerJoin, Mem: sched.NewMemBudget(1 << 10),
	})
	if !errors.Is(err, ErrOutOfMemoryBudget) {
		t.Fatalf("NLJ build over budget: %v", err)
	}
}

func TestNestedLoopJoinParallelByteIdentical(t *testing.T) {
	lowMorselRows(t)
	l, r := joinInputs(t, 400)
	on := func() expr.Expr {
		lt, err := expr.NewBinary(expr.OpLt,
			&expr.ColumnRef{Name: "lk", Index: 0, Typ: storage.TypeInt64},
			&expr.ColumnRef{Name: "rk", Index: 2, Typ: storage.TypeInt64})
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	want, err := Drain(&NestedLoopJoin{Left: NewTableScan(l), Right: NewTableScan(r), Type: InnerJoin, On: on()})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		op := Parallelize(&NestedLoopJoin{
			Left: NewTableScan(l), Right: NewTableScan(r), Type: InnerJoin, On: on(),
		}, workers, nil)
		if _, ok := op.(*Gather); !ok {
			t.Fatalf("workers=%d: NLJ over a splittable probe should clone under a Gather, got %T", workers, op)
		}
		got, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatches(t, fmt.Sprintf("parallel NLJ workers=%d", workers), got, want)
	}
}

func TestHashJoinParallelBuildByteIdentical(t *testing.T) {
	l, r := joinInputs(t, 12000)
	want, err := Drain(&HashJoin{
		Left: NewTableScan(l), Right: NewTableScan(r),
		LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Drain(&HashJoin{
			Left: NewTableScan(l), Right: NewTableScan(r),
			LeftKeys: []int{0}, RightKeys: []int{0}, Type: InnerJoin, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatches(t, fmt.Sprintf("parallel build workers=%d", workers), got, want)
	}
}

func TestMarkTimedScopesToOneTree(t *testing.T) {
	tb := bigTable(t, 100)
	timedOp := &Sort{Input: NewTableScan(tb), Keys: []storage.SortKey{{Col: 0}}}
	coldOp := &Sort{Input: NewTableScan(tb), Keys: []storage.SortKey{{Col: 0}}}
	release := MarkTimed(timedOp)
	if _, err := Drain(timedOp); err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(coldOp); err != nil {
		t.Fatal(err)
	}
	release()
	if timedOp.stats.Nanos.Load() == 0 {
		t.Fatal("marked tree recorded no timings")
	}
	if coldOp.stats.Nanos.Load() != 0 {
		t.Fatal("unmarked concurrent tree paid for timings")
	}
}

// openCounter wraps an operator and counts how often it is opened.
type openCounter struct {
	Operator
	opens int
}

func (o *openCounter) Open() error {
	o.opens++
	return o.Operator.Open()
}

// TestSpillPathsOpenInputOnce: no memory-pressure path re-reads its
// input. An aggregate whose window batches are denied narrows its
// window, one whose group state is denied goes hybrid, the serial fast
// path's NULL-key fallback migrates its groups, and a hash join whose
// probe side outgrows the grant streams on from the buffered prefix —
// each opens its input exactly once, with results identical to
// unlimited memory.
func TestSpillPathsOpenInputOnce(t *testing.T) {
	tb := bigTable(t, 20000)
	agg := func(group string, workers int, mem *sched.MemBudget) (*HashAggregate, *openCounter) {
		in := &openCounter{Operator: NewTableScan(tb)}
		return &HashAggregate{
			Input:   in,
			GroupBy: []expr.Expr{colRef(tb.Schema(), group)},
			Aggs: []*expr.Aggregate{{Kind: expr.AggCountStar},
				{Kind: expr.AggSum, Input: colRef(tb.Schema(), "k")}},
			Names: []string{group, "c", "t"}, Workers: workers, Mem: mem,
		}, in
	}
	for _, c := range []struct {
		name      string
		group     string
		workers   int
		wantSpill bool
	}{
		// 97 groups fit the grant; the buffered window does not.
		{"input-window denial", "g", 2, false},
		// Thousands of groups outgrow the grant.
		{"group-state denial serial", "s", 1, true},
		{"group-state denial parallel", "s", 2, true},
	} {
		base, _ := agg(c.group, 1, nil)
		want, err := Drain(base)
		if err != nil {
			t.Fatal(err)
		}
		a, in := agg(c.group, c.workers, sched.NewMemBudget(spillTestBudget))
		got, err := Drain(a)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatches(t, c.name, got, want)
		if in.opens != 1 {
			t.Errorf("%s: input opened %d times, want 1", c.name, in.opens)
		}
		if spilled := a.stats.SpillRuns.Load() > 0; spilled != c.wantSpill {
			t.Errorf("%s: spilled=%v, want %v", c.name, spilled, c.wantSpill)
		}
	}

	// The serial fast path meets a NULL key mid-stream.
	nulls := storage.NewTable("t", storage.NewSchema(intCol("g")))
	for i := 0; i < 3000; i++ {
		v := iv(int64(i % 7))
		if i == 2500 {
			v = storage.Null(storage.TypeInt64)
		}
		if err := nulls.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	in := &openCounter{Operator: NewTableScan(nulls)}
	out, err := Drain(&HashAggregate{
		Input:   in,
		GroupBy: []expr.Expr{colRef(nulls.Schema(), "g")},
		Aggs:    []*expr.Aggregate{{Kind: expr.AggCountStar}},
		Names:   []string{"g", "n"}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 8 || in.opens != 1 {
		t.Errorf("NULL-key fallback: %d groups (want 8), input opened %d times (want 1)", out.Len(), in.opens)
	}

	// A hash join whose build fits but whose probe side does not.
	l, r := joinInputs(t, 12000)
	small := storage.NewTable("small", r.Schema())
	for i := 0; i < 200; i++ {
		if err := small.AppendRow(r.Snapshot().ShardBatch(0).Row(i)...); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(mem *sched.MemBudget) (*HashJoin, *openCounter) {
		left := &openCounter{Operator: NewTableScan(l)}
		return &HashJoin{Left: left, Right: NewTableScan(small),
			LeftKeys: []int{0}, RightKeys: []int{0}, Type: LeftJoin, Mem: mem}, left
	}
	base, _ := mk(nil)
	want, err := Drain(base)
	if err != nil {
		t.Fatal(err)
	}
	j, left := mk(sched.NewMemBudget(spillTestBudget))
	got, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatches(t, "probe-side overflow", got, want)
	if left.opens != 1 {
		t.Errorf("probe-side overflow: left opened %d times, want 1", left.opens)
	}
	if _, probe := j.BuildProbeRows(); probe != int64(l.NumRows()) {
		t.Errorf("probe rows = %d, want %d", probe, l.NumRows())
	}
}

// graceFixture builds left and right tables for the columnar Grace
// join tests: an (INTEGER, VARCHAR) key pair and FLOAT, BOOL and
// VARCHAR payloads, every column with NULLs.
func graceFixture(t *testing.T, rows int) (*storage.Table, *storage.Table) {
	t.Helper()
	mk := func(name, p string, seed int64) *storage.Table {
		tb := storage.NewTable(name, storage.NewSchema(
			intCol(p+"k"), storage.Col(p+"s", storage.TypeString),
			storage.Col(p+"f", storage.TypeFloat64), storage.Col(p+"b", storage.TypeBool),
			storage.Col(p+"p", storage.TypeString)))
		rng := rand.New(rand.NewSource(seed))
		maybe := func(v storage.Value, typ storage.Type) storage.Value {
			if rng.Intn(15) == 0 {
				return storage.Null(typ)
			}
			return v
		}
		for i := 0; i < rows; i++ {
			if err := tb.AppendRow(
				maybe(iv(rng.Int63n(int64(rows/8+1))), storage.TypeInt64),
				maybe(sv(string(rune('a'+rng.Intn(3)))), storage.TypeString),
				maybe(storage.Float64(rng.NormFloat64()), storage.TypeFloat64),
				maybe(storage.Bool(rng.Intn(2) == 0), storage.TypeBool),
				maybe(sv(fmt.Sprintf("%s-%05d", name, i)), storage.TypeString),
			); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	return mk("l", "l", 21), mk("r", "r", 22)
}

// TestHashJoinGraceColumnar covers the columnar Grace path's shapes at
// workers 1/2/8 under the 64KB grant, each byte-identical to unlimited
// memory: a two-key join with NULL keys on both sides, a LEFT join
// whose residual reads both sides, and FLOAT/BOOL/VARCHAR payloads with
// NULLs through a LEFT join's pads.
func TestHashJoinGraceColumnar(t *testing.T) {
	l, r := graceFixture(t, 8000)
	col := func(name string, idx int, typ storage.Type) *expr.ColumnRef {
		return &expr.ColumnRef{Name: name, Index: idx, Typ: typ}
	}
	residual := func() expr.Expr {
		// l.lf < r.rf (columns 2 and 7 of the combined row).
		lt, err := expr.NewBinary(expr.OpLt, col("lf", 2, storage.TypeFloat64), col("rf", 7, storage.TypeFloat64))
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	cases := []struct {
		name        string
		lkeys, rkey []int
		typ         JoinType
		residual    func() expr.Expr
	}{
		{"two keys with NULLs", []int{0, 1}, []int{0, 1}, InnerJoin, nil},
		{"left join residual over both sides", []int{0}, []int{0}, LeftJoin, residual},
		{"left join payload NULLs", []int{0, 1}, []int{0, 1}, LeftJoin, nil},
	}
	for _, c := range cases {
		mk := func(workers int, mem *sched.MemBudget) *HashJoin {
			j := &HashJoin{Left: NewTableScan(l), Right: NewTableScan(r),
				LeftKeys: c.lkeys, RightKeys: c.rkey, Type: c.typ, Workers: workers, Mem: mem}
			if c.residual != nil {
				j.Residual = c.residual()
			}
			return j
		}
		want, err := Drain(mk(1, nil))
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() < 1000 {
			t.Fatalf("%s: degenerate fixture, %d rows", c.name, want.Len())
		}
		for _, workers := range []int{1, 2, 8} {
			j := mk(workers, sched.NewMemBudget(spillTestBudget))
			got, err := Drain(j)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBatches(t, fmt.Sprintf("%s workers=%d", c.name, workers), got, want)
			if j.stats.SpillRuns.Load() == 0 {
				t.Fatalf("%s workers=%d: 64KB join did not partition to disk", c.name, workers)
			}
		}
	}
}
