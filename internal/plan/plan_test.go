package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/storage"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	edge, err := cat.Create("edge", storage.NewSchema(
		storage.Col("src", storage.TypeInt64),
		storage.Col("dst", storage.TypeInt64),
		storage.Col("weight", storage.TypeFloat64),
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][3]int64{{1, 2, 10}, {2, 3, 20}, {1, 3, 30}} {
		if err := edge.AppendRow(storage.Int64(e[0]), storage.Int64(e[1]), storage.Float64(float64(e[2]))); err != nil {
			t.Fatal(err)
		}
	}
	vertex, err := cat.Create("vertex", storage.NewSchema(
		storage.Col("id", storage.TypeInt64),
		storage.Col("name", storage.TypeString),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := vertex.AppendRow(storage.Int64(i), storage.Str(strings.Repeat("v", int(i)))); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func planQuery(t *testing.T, cat *catalog.Catalog, q string) exec.Operator {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p := New(cat, expr.NewRegistry())
	op, err := p.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// findOp walks the operator tree looking for a type.
func hasHashJoin(op exec.Operator) bool {
	switch o := op.(type) {
	case *exec.HashJoin:
		return true
	case *exec.NestedLoopJoin:
		return hasHashJoin(o.Left) || hasHashJoin(o.Right)
	case *exec.Filter:
		return hasHashJoin(o.Input)
	case *exec.Project:
		return hasHashJoin(o.Input)
	case *exec.Sort:
		return hasHashJoin(o.Input)
	case *exec.Limit:
		return hasHashJoin(o.Input)
	case *exec.HashAggregate:
		return hasHashJoin(o.Input)
	case *exec.Distinct:
		return hasHashJoin(o.Input)
	}
	return false
}

func TestEquiJoinBecomesHashJoin(t *testing.T) {
	cat := testCatalog(t)
	op := planQuery(t, cat, "SELECT v.name FROM edge e JOIN vertex v ON e.dst = v.id")
	if !hasHashJoin(op) {
		t.Error("explicit equi-join should plan as hash join")
	}
	// Comma-join with WHERE equality also promotes to hash join.
	op2 := planQuery(t, cat, "SELECT v.name FROM edge e, vertex v WHERE e.dst = v.id")
	if !hasHashJoin(op2) {
		t.Error("comma join with equality predicate should plan as hash join")
	}
}

func TestScopeAmbiguity(t *testing.T) {
	cat := testCatalog(t)
	st, _ := sql.Parse("SELECT src FROM edge e1, edge e2")
	p := New(cat, expr.NewRegistry())
	if _, err := p.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil); err == nil {
		t.Error("ambiguous column should fail to bind")
	}
	st2, _ := sql.Parse("SELECT nothere FROM edge")
	if _, err := p.PlanSelectParams(st2.(*sql.SelectStmt), 0, nil, nil); err == nil {
		t.Error("unknown column should fail to bind")
	}
}

func TestStarExpansion(t *testing.T) {
	cat := testCatalog(t)
	op := planQuery(t, cat, "SELECT * FROM edge e JOIN vertex v ON e.src = v.id")
	if op.Schema().Len() != 5 {
		t.Errorf("* over join expands to %d cols, want 5", op.Schema().Len())
	}
	op2 := planQuery(t, cat, "SELECT v.* FROM edge e JOIN vertex v ON e.src = v.id")
	if op2.Schema().Len() != 2 {
		t.Errorf("v.* expands to %d cols, want 2", op2.Schema().Len())
	}
}

func TestHavingWithoutGroupByRejected(t *testing.T) {
	cat := testCatalog(t)
	st, _ := sql.Parse("SELECT src FROM edge HAVING src > 1")
	p := New(cat, expr.NewRegistry())
	if _, err := p.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil); err == nil {
		t.Error("HAVING without aggregates should be rejected")
	}
}

func TestAggregateBindingErrors(t *testing.T) {
	cat := testCatalog(t)
	p := New(cat, expr.NewRegistry())
	// Non-grouped column in select list.
	st, _ := sql.Parse("SELECT dst, COUNT(*) FROM edge GROUP BY src")
	if _, err := p.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil); err == nil {
		t.Error("non-grouped column must be rejected")
	}
	// Aggregate in WHERE.
	st2, _ := sql.Parse("SELECT src FROM edge WHERE COUNT(*) > 1")
	if _, err := p.PlanSelectParams(st2.(*sql.SelectStmt), 0, nil, nil); err == nil {
		t.Error("aggregate in WHERE must be rejected")
	}
	// Star inside aggregate other than COUNT.
	st3, _ := sql.Parse("SELECT SUM(*) FROM edge")
	if _, err := p.PlanSelectParams(st3.(*sql.SelectStmt), 0, nil, nil); err == nil {
		t.Error("SUM(*) must be rejected")
	}
}

func TestOrderByUnprojectedColumn(t *testing.T) {
	cat := testCatalog(t)
	// Plain selects may order by any input expression via hidden sort
	// columns; the extra columns must not leak into the output.
	op := planQuery(t, cat, "SELECT src FROM edge ORDER BY weight DESC")
	out, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Len() != 1 {
		t.Fatalf("hidden sort column leaked: %v", out.Schema.Names())
	}
	// weights are 10,20,30 on (1,2),(2,3),(1,3): descending → 1,2,1.
	want := []int64{1, 2, 1}
	for i, w := range want {
		if out.Row(i)[0].I != w {
			t.Errorf("row %d = %d, want %d", i, out.Row(i)[0].I, w)
		}
	}
	// DISTINCT cannot use hidden sort columns (they would change the
	// duplicate set) and must still be rejected.
	st, _ := sql.Parse("SELECT DISTINCT src FROM edge ORDER BY dst + 1")
	p := New(cat, expr.NewRegistry())
	if _, err := p.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil); err == nil {
		t.Error("DISTINCT with unprojected ORDER BY should be rejected")
	}
}

func TestPredicatePushdownProducesFilterUnderJoin(t *testing.T) {
	cat := testCatalog(t)
	// weight > 15 binds on the edge side alone and must be pushed below
	// the join: the join's left input should be a Filter over the scan.
	op := planQuery(t, cat, "SELECT v.name FROM edge e, vertex v WHERE e.dst = v.id AND e.weight > 15.0")
	hj, ok := findHashJoin(op)
	if !ok {
		t.Fatal("expected hash join in plan")
	}
	if _, ok := hj.Left.(*exec.Filter); !ok {
		t.Errorf("expected filter pushed below join, left input is %T", hj.Left)
	}
	// Executing it still gives the right answer.
	out, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("rows = %d, want 2 (weights 20 and 30)", out.Len())
	}
}

func findHashJoin(op exec.Operator) (*exec.HashJoin, bool) {
	switch o := op.(type) {
	case *exec.HashJoin:
		return o, true
	case *exec.Filter:
		return findHashJoin(o.Input)
	case *exec.Project:
		return findHashJoin(o.Input)
	case *exec.Sort:
		return findHashJoin(o.Input)
	case *exec.Limit:
		return findHashJoin(o.Input)
	case *exec.HashAggregate:
		return findHashJoin(o.Input)
	}
	return nil, false
}

func TestScopeResolve(t *testing.T) {
	sc := NewScope("e", storage.NewSchema(
		storage.Col("src", storage.TypeInt64),
		storage.Col("dst", storage.TypeInt64),
	))
	if i, typ, err := sc.Resolve("e", "dst"); err != nil || i != 1 || typ != storage.TypeInt64 {
		t.Errorf("qualified resolve: %d %v %v", i, typ, err)
	}
	if i, _, err := sc.Resolve("", "src"); err != nil || i != 0 {
		t.Errorf("unqualified resolve: %d %v", i, err)
	}
	if _, _, err := sc.Resolve("x", "src"); err == nil {
		t.Error("wrong qualifier should fail")
	}
	both := Concat(sc, NewScope("v", storage.NewSchema(storage.Col("src", storage.TypeInt64))))
	if _, _, err := both.Resolve("", "src"); err == nil {
		t.Error("ambiguous unqualified name should fail")
	}
	if i, _, err := both.Resolve("v", "src"); err != nil || i != 2 {
		t.Errorf("qualified disambiguation failed: %d %v", i, err)
	}
}

func TestHiddenColumnsInvisible(t *testing.T) {
	sc := &Scope{Cols: []ScopeCol{
		{Qualifier: "t", Name: "visible", Type: storage.TypeInt64},
		{Qualifier: "$system", Name: "secret", Type: storage.TypeInt64, Hidden: true},
	}}
	if _, _, err := sc.Resolve("", "secret"); err == nil {
		t.Error("hidden column must not resolve")
	}
	if got := sc.Visible(""); len(got) != 1 || got[0] != 0 {
		t.Errorf("Visible = %v", got)
	}
}

// walkOps visits every operator in a plan tree.
func walkOps(op exec.Operator, visit func(exec.Operator)) {
	visit(op)
	switch o := op.(type) {
	case *exec.Filter:
		walkOps(o.Input, visit)
	case *exec.Project:
		walkOps(o.Input, visit)
	case *exec.Limit:
		walkOps(o.Input, visit)
	case *exec.Sort:
		walkOps(o.Input, visit)
	case *exec.Distinct:
		walkOps(o.Input, visit)
	case *exec.HashAggregate:
		walkOps(o.Input, visit)
	case *exec.HashJoin:
		walkOps(o.Left, visit)
		walkOps(o.Right, visit)
	case *exec.NestedLoopJoin:
		walkOps(o.Left, visit)
		walkOps(o.Right, visit)
	case *exec.UnionAll:
		for _, in := range o.Inputs {
			walkOps(in, visit)
		}
	case *exec.Gather:
		for _, f := range o.Fragments {
			walkOps(f, visit)
		}
	}
}

// TestLimitKeepsPlanSerial asserts the planner's early-exit rule: a
// LIMIT (without ORDER BY) plans its whole subtree serial — no Gathers,
// and a hash join that stops its probe early — while the same query
// without LIMIT (or with ORDER BY, whose sort drains anyway) stays
// parallel.
func TestLimitKeepsPlanSerial(t *testing.T) {
	oldMorsel := exec.MinMorselRows
	exec.MinMorselRows = 4
	defer func() { exec.MinMorselRows = oldMorsel }()

	cat := catalog.New()
	big, err := cat.Create("big", storage.NewSchema(
		storage.Col("id", storage.TypeInt64),
		storage.Col("w", storage.TypeFloat64),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4*storage.BatchSize; i++ {
		if err := big.AppendRow(storage.Int64(i), storage.Float64(float64(i))); err != nil {
			t.Fatal(err)
		}
	}

	planAt := func(workers int, q string) exec.Operator {
		t.Helper()
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p := New(cat, expr.NewRegistry())
		p.Parallelism = workers
		op, err := p.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	plan := func(q string) exec.Operator { return planAt(8, q) }
	countGathers := func(op exec.Operator) int {
		n := 0
		walkOps(op, func(o exec.Operator) {
			if _, ok := o.(*exec.Gather); ok {
				n++
			}
		})
		return n
	}

	if n := countGathers(plan("SELECT id FROM big WHERE w > 10.0")); n == 0 {
		t.Fatal("parallel query without LIMIT should contain a Gather")
	}
	if n := countGathers(plan("SELECT id FROM big WHERE w > 10.0 LIMIT 5")); n != 0 {
		t.Fatalf("plan under LIMIT contains %d Gathers, want 0 (serial streaming)", n)
	}
	if n := countGathers(plan("SELECT id FROM big WHERE w > 10.0 ORDER BY id LIMIT 5")); n == 0 {
		t.Fatal("ORDER BY LIMIT must stay parallel (the sort drains its input anyway)")
	}

	// A hash join under a LIMIT stops pulling its probe side after at
	// most two batches.
	for _, workers := range []int{1, 2} {
		op := planAt(workers, "SELECT a.id FROM big a JOIN big b ON a.id = b.id LIMIT 5")
		if n := countGathers(op); n != 0 {
			t.Fatalf("workers=%d: join under LIMIT planned %d Gathers, want 0", workers, n)
		}
		out, err := exec.Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		var joins, probe int64
		walkOps(op, func(o exec.Operator) {
			if j, ok := o.(*exec.HashJoin); ok {
				_, p := j.BuildProbeRows()
				joins, probe = joins+1, probe+p
			}
		})
		if out.Len() != 5 || joins != 1 {
			t.Fatalf("workers=%d: %d rows from %d hash joins, want 5 from 1", workers, out.Len(), joins)
		}
		if probe > 2*storage.BatchSize {
			t.Fatalf("workers=%d: join under LIMIT 5 probed %d rows, want <= %d", workers, probe, 2*storage.BatchSize)
		}
	}

	// Blocking aggregates cannot short-circuit: LIMIT over GROUP BY
	// keeps the aggregate's parallel fold.
	aggWorkers := func(op exec.Operator) int {
		n := 0
		walkOps(op, func(o exec.Operator) {
			if a, ok := o.(*exec.HashAggregate); ok {
				n = max(n, a.Workers)
			}
		})
		return n
	}
	if n := aggWorkers(plan("SELECT id, COUNT(*) FROM big GROUP BY id LIMIT 5")); n < 2 {
		t.Fatalf("aggregate under LIMIT folds with %d workers; blocking fold should keep parallelism", n)
	}
	// Same through a derived table: the aggregating subquery gets the
	// full budget back even inside a serialized outer LIMIT.
	if n := aggWorkers(plan("SELECT t.id FROM (SELECT id, COUNT(*) AS c FROM big GROUP BY id) AS t LIMIT 5")); n < 2 {
		t.Fatalf("aggregating subquery under LIMIT folds with %d workers; blocking fold should keep parallelism", n)
	}
	// And for a sorting subquery: its blocking Sort drains its input
	// no matter what, so it keeps the full budget too.
	if n := countGathers(plan("SELECT t.id FROM (SELECT id FROM big ORDER BY w) AS t LIMIT 5")); n == 0 {
		t.Fatal("sorting subquery under LIMIT planned fully serial; blocking sort should keep parallelism")
	}

	// A LIMIT too large to benefit from early exit keeps the parallel
	// plan.
	oldMax := SerialLimitMax
	SerialLimitMax = 100
	defer func() { SerialLimitMax = oldMax }()
	if n := countGathers(plan("SELECT id FROM big WHERE w > 10.0 LIMIT 101")); n == 0 {
		t.Fatal("LIMIT above SerialLimitMax should keep the parallel plan")
	}
	if n := countGathers(plan("SELECT id FROM big WHERE w > 10.0 LIMIT 100")); n != 0 {
		t.Fatal("LIMIT at SerialLimitMax should plan serial")
	}
}

// twinCatalog holds a and b, which share both column names, and c,
// which shares only id.
func twinCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, name := range []string{"a", "b", "c"} {
		other := storage.Col("x", storage.TypeInt64)
		if name == "c" {
			other = storage.Col("y", storage.TypeInt64)
		}
		tb, err := cat.Create(name, storage.NewSchema(storage.Col("id", storage.TypeInt64), other))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.AppendRow(storage.Int64(1), storage.Int64(1)); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestJoinAmbiguousColumn: an unqualified name two FROM items share is
// ambiguous in WHERE and ON alike, even when placement could bind it
// on the first item alone; an ON condition sees only the tables joined
// so far.
func TestJoinAmbiguousColumn(t *testing.T) {
	p := New(twinCatalog(t), expr.NewRegistry())
	for _, tc := range []struct{ q, want string }{
		{"SELECT a.id FROM a, b WHERE a.id = b.id AND x = 1", `ambiguous column "x"`},
		{"SELECT a.id FROM a JOIN b ON a.id = b.id WHERE x = 1", `ambiguous column "x"`},
		{"SELECT a.id FROM a JOIN b ON a.id = b.id AND x = 1", `ambiguous column "x"`},
		{"SELECT a.id FROM a LEFT JOIN b ON a.id = b.id WHERE x = 1", `ambiguous column "x"`},
		{"SELECT a.id FROM a LEFT JOIN b ON a.id = b.id AND x = 1", `ambiguous column "x"`},
		{"SELECT a.id FROM a, b JOIN c ON a.id = c.id", `unknown column "a.id"`},
		{"SELECT a.id FROM a JOIN b ON a.id = c.id, c", `unknown column "c.id"`},
		{"SELECT a.id FROM a JOIN c ON c.id = b.id JOIN b ON b.id = a.id", `unknown column "b.id"`},
	} {
		st, err := sql.Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.PlanSelectParams(st.(*sql.SelectStmt), 0, nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %s", tc.q, err, tc.want)
		}
	}
	// A name only one of its own join's tables carries binds there,
	// though a table outside that join has it too.
	for _, q := range []string{
		"SELECT c.y FROM a, b JOIN c ON b.id = c.id AND x = 1",
		"SELECT c.y FROM a JOIN c ON a.id = c.id AND x = 1 JOIN b ON b.id = a.id",
	} {
		out, err := exec.Drain(planQuery(t, twinCatalog(t), q))
		if err != nil || out.Len() != 1 {
			t.Errorf("%s: rows = %v, err = %v; want 1 row", q, out, err)
		}
	}
}

// TestJoinPlacementExplain pins where conjuncts land: a WHERE conjunct
// on one input filters that input below the join, one that first binds
// at a join step is that join's residual (or a nested-loop join's ON),
// and the ON and WHERE spellings of a query print the same plan.
func TestJoinPlacementExplain(t *testing.T) {
	cat := testCatalog(t)
	explain := func(q string) string {
		t.Helper()
		return strings.Join(exec.Explain(planQuery(t, cat, q), false), "\n")
	}
	for _, tc := range []struct {
		q    string
		want []string
	}{
		{"SELECT v.name FROM edge e JOIN vertex v ON v.id = e.dst WHERE e.src = 1", []string{
			"Project (name)",
			"  HashJoin inner (dst = id)",
			"    Scan vertex",
			"    Filter ((e.src = 1))",
			"      Scan edge",
		}},
		{"SELECT v.name FROM edge e JOIN vertex v ON v.id = e.dst WHERE e.weight > v.id", []string{
			"Project (name)",
			"  HashJoin inner (dst = id) residual ((e.weight > v.id))",
			"    Scan vertex",
			"    Scan edge",
		}},
		{"SELECT v.name FROM edge e, vertex v WHERE e.src < v.id", []string{
			"Project (name)",
			"  NestedLoopJoin inner on ((e.src < v.id))",
			"    Scan vertex",
			"    Scan edge",
		}},
	} {
		if got, want := explain(tc.q), strings.Join(tc.want, "\n"); got != want {
			t.Errorf("%s:\n got\n%s\nwant\n%s", tc.q, got, want)
		}
	}

	// Per-node triangles, with the non-key conjuncts in ON and in WHERE.
	on := explain(`SELECT e1.src, COUNT(*) FROM edge e1
		JOIN edge e2 ON e1.src = e2.src AND e1.dst < e2.dst
		JOIN edge e3 ON e3.src = e1.dst AND e3.dst = e2.dst GROUP BY e1.src`)
	where := explain(`SELECT e1.src, COUNT(*) FROM edge e1
		JOIN edge e2 ON e1.src = e2.src
		JOIN edge e3 ON e3.src = e1.dst WHERE e1.dst < e2.dst AND e3.dst = e2.dst GROUP BY e1.src`)
	if on != where {
		t.Errorf("ON and WHERE spellings plan differently:\nON\n%s\nWHERE\n%s", on, where)
	}
	if !strings.Contains(on, "residual ((e1.dst < e2.dst))") {
		t.Errorf("triangle plan lacks the e1.dst < e2.dst residual:\n%s", on)
	}
}
