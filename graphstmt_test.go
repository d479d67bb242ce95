package vertexica

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
)

// Graph statements are ordinary statements: the facade registers the
// runner, so PAGERANK / SSSP / COMPONENTS / TRIANGLES run — and answer
// EXPLAIN, with ANALYZE folding the run's RunStats in — through
// ordinary SQL, and every observability surface sees them.

func explainVerb(t *testing.T, vx *Engine, stmt string) []string {
	t.Helper()
	rows, _, err := vx.SQL(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	out := make([]string, rows.Len())
	for i := range out {
		out[i] = rows.Value(i, 0).S
	}
	return out
}

func wantContains(t *testing.T, stmt string, lines []string, subs ...string) {
	t.Helper()
	joined := strings.Join(lines, "\n")
	for _, sub := range subs {
		if !strings.Contains(joined, sub) {
			t.Errorf("%s: output lacks %q:\n%s", stmt, sub, joined)
		}
	}
}

func TestExplainGraphVerb(t *testing.T) {
	vx, _ := smallSocial(t)

	stmt := "EXPLAIN PAGERANK social 5"
	lines := explainVerb(t, vx, stmt)
	wantContains(t, stmt, lines,
		`pagerank iterations=5 on graph "social" (vertex-centric)`,
		"40 vertices",
		"hash partitions",
		"input cache: edge side built once",
		"combiner: SUM over DOUBLE, folded per destination partition",
		"write-back: update in place when <10%",
		"schedule: up to",
	)
	// Plain EXPLAIN must not run the verb.
	for _, l := range lines {
		if strings.Contains(l, "executed:") {
			t.Fatalf("%s executed the run: %q", stmt, l)
		}
	}

	stmt = "EXPLAIN SSSP social 0 1"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"sssp source=0 unit_weights=true", "vertex-centric", "combiner: MIN over DOUBLE")

	stmt = "EXPLAIN PAGERANK_SQL social 3"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"(iterated SQL)", "iterations: 3 (fixed)")

	stmt = "EXPLAIN SSSP_SQL social 2"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		`sssp source=2 unit_weights=false on graph "social" (iterated SQL)`)

	stmt = "EXPLAIN COMPONENTS social"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		`components on graph "social" (vertex-centric)`, "combiner: MIN over BIGINT")

	stmt = "EXPLAIN COMPONENTS_SQL social"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		`components on graph "social" (iterated SQL)`)

	stmt = "EXPLAIN TRIANGLES social"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"one-shot SQL", "self-join the edge table")

	if _, _, err := vx.SQL("EXPLAIN PAGERANK"); err == nil {
		t.Error("EXPLAIN PAGERANK without a graph name succeeded")
	}
	if _, _, err := vx.SQL("EXPLAIN FROBNICATE social"); err == nil {
		t.Error("EXPLAIN of an unknown verb succeeded")
	}
}

func TestExplainAnalyzeGraphVerb(t *testing.T) {
	vx, _ := smallSocial(t)

	stmt := "EXPLAIN ANALYZE PAGERANK social 4"
	lines := explainVerb(t, vx, stmt)
	wantContains(t, stmt, lines,
		"executed: supersteps=",
		"cache: builds=",
		"superstep  1:",
		"(input=", " compute=", " fold=",
		"result: 40 rows",
	)

	stmt = "EXPLAIN ANALYZE COMPONENTS social"
	wantContains(t, stmt, explainVerb(t, vx, stmt),
		"executed: supersteps=", "result: 40 rows")

	stmt = "EXPLAIN ANALYZE TRIANGLES social"
	wantContains(t, stmt, explainVerb(t, vx, stmt), "executed: triangles=")
}

// traceOf returns the retained trace of the session's last statement.
func traceOf(t *testing.T, vx *Engine, s *engine.Session) *trace.Collector {
	t.Helper()
	for _, tc := range vx.DB().Tracer().Recent() {
		if tc.ID() == s.LastTraceID() {
			return tc
		}
	}
	t.Fatalf("trace %d not retained", s.LastTraceID())
	return nil
}

// TestGraphStatementIsObserved: a graph statement leaves what any
// statement leaves — a vx$traces row whose spans tile it (parse, gate,
// exec, with the supersteps nested under exec), a statement counter, a
// latency observation and a slow-query line — and its superstep spans
// account for the exec span.
func TestGraphStatementIsObserved(t *testing.T) {
	vx := New()
	if _, err := vx.LoadDataset(ErdosRenyi("mid", 2000, 16000, 7)); err != nil {
		t.Fatal(err)
	}
	db := vx.DB()
	var slow []engine.SlowQuery
	db.SetSlowQueryLog(func(q engine.SlowQuery) { slow = append(slow, q) })
	db.SetSlowQueryThreshold(time.Nanosecond)
	s := db.NewSession()
	defer s.Close()

	const stmt = "PAGERANK mid 12"
	latency := db.Stats().Histogram("engine.statement_latency")
	before := latency.Count()
	rows, _, err := s.RunStream(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2000 {
		t.Fatalf("%d rank rows, want 2000", rows.Len())
	}
	if got := latency.Count() - before; got != 1 {
		t.Errorf("%d latency observations, want 1", got)
	}
	if n := db.Stats().Counter("engine.statements.graph").Load(); n != 1 {
		t.Errorf("engine.statements.graph = %d, want 1", n)
	}
	if len(slow) != 1 || slow[0].Text != stmt || slow[0].Rows != 2000 || slow[0].TraceID != s.LastTraceID() {
		t.Errorf("slow-query records = %+v, want one for %q", slow, stmt)
	}

	// The trace is queryable like any other.
	q, _, err := vx.SQL(fmt.Sprintf("SELECT stmt FROM vx$traces WHERE trace_id = %d", s.LastTraceID()))
	if err != nil || q.Len() != 1 || q.Value(0, 0).S != stmt {
		t.Fatalf("vx$traces row for the run: %v (%d rows)", err, q.Len())
	}
	var execNs, stepNs, depth0 int64
	steps := 0
	stages := map[string]bool{}
	tc := traceOf(t, vx, s)
	for _, sp := range tc.Spans() {
		stages[sp.Stage] = true
		switch {
		case sp.Stage == "superstep":
			if sp.Depth != 1 || !strings.Contains(sp.Detail, "computed=") || !strings.Contains(sp.Detail, "cache=") {
				t.Errorf("superstep span = %+v", sp)
			}
			steps++
			stepNs += sp.DurNs
		case sp.Depth == 0:
			depth0 += sp.DurNs
			if sp.Stage == "exec" {
				execNs = sp.DurNs
			}
		}
	}
	for _, stage := range []string{"parse", "gate", "exec"} {
		if !stages[stage] {
			t.Errorf("lifecycle span %q missing (have %v)", stage, stages)
		}
	}
	var supersteps int64
	for _, st := range rows.Stats {
		if st.Name == "supersteps" {
			supersteps = st.Value
		}
	}
	if steps == 0 || int64(steps) != supersteps {
		t.Errorf("%d superstep spans, run stats say %d supersteps", steps, supersteps)
	}
	// Same tolerance the lifecycle spans are held to against the
	// statement duration (TestTraceForcedSpillSpans).
	if diff := stepNs - execNs; diff < -execNs/4 || diff > execNs/4 {
		t.Errorf("superstep spans sum to %s, exec span is %s (off by more than 25%%)",
			time.Duration(stepNs), time.Duration(execNs))
	}
	if d := int64(slow[0].Duration); depth0 < d-d/4 || depth0 > d+d/4 {
		t.Errorf("depth-0 spans sum to %s, statement took %s", time.Duration(depth0), slow[0].Duration)
	}

	// The statements a SQL-flavored run issues are detail of its exec
	// stage: they leave the lifecycle tiling alone.
	if _, _, err := s.Run(context.Background(), "PAGERANK_SQL mid 2"); err != nil {
		t.Fatal(err)
	}
	if spans := traceOf(t, vx, s).Spans(); len(spans) != 3 {
		t.Errorf("PAGERANK_SQL trace = %+v, want just parse, gate, exec", spans)
	}
	if _, _, err := s.Run(context.Background(), stmt); err != nil {
		t.Fatal(err)
	}

	// SHOW TRACE renders the same spans.
	show, _, err := s.Run(context.Background(), "SHOW TRACE")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < show.Len(); i++ {
		found = found || show.Value(i, 2).S == "superstep"
	}
	if !found {
		t.Error("SHOW TRACE lists no superstep span")
	}
}

// TestGraphStatementActiveAndTimeout: while a graph statement runs it
// has a row in vx$active_statements; statement_timeout cancels it in
// the middle of its supersteps; SET parallelism caps the run's workers.
func TestGraphStatementActiveAndTimeout(t *testing.T) {
	vx := New()
	if _, err := vx.LoadDataset(ErdosRenyi("mid", 2000, 16000, 7)); err != nil {
		t.Fatal(err)
	}
	db := vx.DB()
	s := db.NewSession()
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.RunStream(ctx, "PAGERANK mid 100000")
		done <- err
	}()
	deadline := time.Now().Add(20 * time.Second)
	for seen := false; !seen; {
		if time.Now().After(deadline) {
			t.Fatal("running PAGERANK never showed up in vx$active_statements")
		}
		rows, _, err := vx.SQL("SELECT stmt FROM vx$active_statements")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows.Len(); i++ {
			seen = seen || rows.Value(i, 0).S == "PAGERANK mid 100000"
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}

	mustRun := func(stmt string) *Rows {
		t.Helper()
		rows, _, err := s.Run(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return rows
	}
	mustRun("SET statement_timeout = 30")
	start := time.Now()
	if _, _, err := s.Run(context.Background(), "PAGERANK mid 100000"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("statement_timeout: err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("timed-out run took %v", took)
	}
	if tc := traceOf(t, vx, s); tc.TotalNs() == 0 {
		t.Error("timed-out run's trace was never finished")
	}
	mustRun("SET statement_timeout = 0")

	mustRun("SET parallelism = 1")
	plan := mustRun("EXPLAIN ANALYZE PAGERANK mid 2")
	layout := ""
	for i := 0; i < plan.Len(); i++ {
		if l := plan.Value(i, 0).S; strings.Contains(l, "layout:") {
			layout = l
		}
	}
	if !strings.Contains(layout, ", 1 workers") {
		t.Errorf("SET parallelism = 1 did not cap the run: %q", layout)
	}
}

// TestTrianglesHonorsStatementTimeout: TRIANGLES runs its self-join
// under the statement's context, so statement_timeout stops a count
// that would run far past it, and the run's write gate is returned.
func TestTrianglesHonorsStatementTimeout(t *testing.T) {
	vx := New()
	if _, err := vx.LoadDataset(MakeUndirected(ErdosRenyi("tri", 3000, 60000, 5))); err != nil {
		t.Fatal(err)
	}
	db := vx.DB()
	s := db.NewSession()
	defer s.Close()
	if _, _, err := s.Run(context.Background(), "SET statement_timeout = 1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(context.Background(), "TRIANGLES tri"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TRIANGLES under a 1 ms statement_timeout: err = %v, want context.DeadlineExceeded", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := db.AcquireWriteGate(ctx); err != nil {
		t.Fatalf("write gate still held after the timed-out count: %v", err)
	}
	db.ReleaseWriteGate()
}

// TestSQLGraphStatementIsObserved: a SQL-flavored graph statement is
// observed once, like PAGERANK — the statements its driver issues are
// detail of the run, with no counter, observation or slow-log record
// of their own.
func TestSQLGraphStatementIsObserved(t *testing.T) {
	vx := New()
	if _, err := vx.LoadDataset(ErdosRenyi("mid", 2000, 16000, 7)); err != nil {
		t.Fatal(err)
	}
	db := vx.DB()
	var slow []engine.SlowQuery
	db.SetSlowQueryLog(func(q engine.SlowQuery) { slow = append(slow, q) })
	db.SetSlowQueryThreshold(time.Nanosecond)
	s := db.NewSession()
	defer s.Close()

	const stmt = "PAGERANK_SQL mid 3"
	latency := db.Stats().Histogram("engine.statement_latency")
	before := latency.Count()
	if _, _, err := s.Run(context.Background(), stmt); err != nil {
		t.Fatal(err)
	}
	if got := latency.Count() - before; got != 1 {
		t.Errorf("%d latency observations, want 1", got)
	}
	if len(slow) != 1 || slow[0].Text != stmt {
		t.Errorf("slow-query records = %+v, want one for %q", slow, stmt)
	}
	for _, st := range db.Stats().Snapshot() {
		if strings.HasPrefix(st.Name, "engine.statements.") && st.Name != "engine.statements.graph" && st.Value != 0 {
			t.Errorf("%s = %d: the driver's statements were counted", st.Name, st.Value)
		}
	}
}
