package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
)

// Observability coverage: EXPLAIN / EXPLAIN ANALYZE renderings, the
// plan-cache key normalization, SHOW STATS, and the slow-query log.

func observeDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db,
		"CREATE TABLE ev (src INTEGER NOT NULL, dst INTEGER NOT NULL) PARTITION BY HASH(src) SHARDS 4",
		"CREATE TABLE nv (id INTEGER NOT NULL, label VARCHAR)",
		"INSERT INTO ev VALUES (1, 2), (1, 3), (2, 3), (3, 1)",
		"INSERT INTO nv VALUES (1, 'a'), (2, 'b'), (3, 'c')",
	)
	return db
}

func observeSession(t *testing.T, db *DB, workers int) *Session {
	t.Helper()
	sess := db.NewSession()
	t.Cleanup(func() { sess.Close() })
	if _, _, err := sess.RunStream(context.Background(),
		fmt.Sprintf("SET parallelism = %d", workers)); err != nil {
		t.Fatal(err)
	}
	return sess
}

func explainLines(t *testing.T, sess *Session, stmt string) []string {
	t.Helper()
	rows, _, err := sess.RunStream(context.Background(), stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return rowLines(t, rows)
}

// TestExplainGolden pins the plain-EXPLAIN renderings for the plan
// shapes the executor produces: serial scans, shard-pruned point
// lookups, parallel aggregation and joins, conjuncts placed below a
// join or as its residual or ON, and write routing. The
// worker count is fixed by SET parallelism, so the fragment counts are
// machine-independent.
func TestExplainGolden(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)

	golden := []struct {
		stmt string
		want []string
	}{
		{"EXPLAIN SELECT * FROM nv", []string{
			"plan (workers=2, mode=snapshot)",
			"Project (id, label)",
			"  Scan nv",
		}},
		{"EXPLAIN SELECT dst FROM ev WHERE src = 1", []string{
			"plan (workers=2, mode=snapshot)",
			"Project (dst)",
			"  Filter ((src = 1))",
			"    Scan ev [shard 1/4]",
		}},
		{"EXPLAIN SELECT src, COUNT(*) FROM ev GROUP BY src", []string{
			"plan (workers=2, mode=snapshot)",
			"Project (src, COUNT(*))",
			"  HashAggregate (src, COUNT(*)) [workers=2]",
			"    Scan ev [4 shards]",
		}},
		{"EXPLAIN SELECT n.label FROM ev e JOIN nv n ON n.id = e.dst WHERE e.src = 1 ORDER BY n.label LIMIT 2", []string{
			"plan (workers=2, mode=snapshot)",
			"Limit 2",
			"  Sort (label) [workers=2]",
			"    Project (label)",
			"      HashJoin inner (dst = id) [workers=2]",
			"        Scan nv",
			"        Filter ((e.src = 1))",
			"          Scan ev [shard 1/4]",
		}},
		{"EXPLAIN SELECT e.src, n.label FROM ev e JOIN nv n ON n.id = e.dst WHERE e.src < n.id", []string{
			"plan (workers=2, mode=snapshot)",
			"Project (src, label)",
			"  HashJoin inner (dst = id) residual ((e.src < n.id)) [workers=2]",
			"    Scan nv",
			"    Scan ev [4 shards]",
		}},
		{"EXPLAIN SELECT e.src, n.id FROM ev e, nv n WHERE e.dst < n.id", []string{
			"plan (workers=2, mode=snapshot)",
			"Project (src, id)",
			"  NestedLoopJoin inner on ((e.dst < n.id))",
			"    Scan nv",
			"    Scan ev [4 shards]",
		}},
		{"EXPLAIN INSERT INTO nv VALUES (4, 'd')", []string{
			"write insert: sharded fast path (shared gate + per-shard statement locks)",
		}},
		{"EXPLAIN CREATE TABLE zz (x INTEGER)", []string{
			"write create: serialized (exclusive write gate)",
		}},
	}
	for _, g := range golden {
		got := explainLines(t, sess, g.stmt)
		if len(got) != len(g.want) {
			t.Errorf("%s:\n got %d lines %q\nwant %d lines %q", g.stmt, len(got), got, len(g.want), g.want)
			continue
		}
		for i := range got {
			if got[i] != g.want[i] {
				t.Errorf("%s: line %d = %q, want %q", g.stmt, i, got[i], g.want[i])
			}
		}
	}
}

// explainRowCounts extracts per-operator output rows from an ANALYZE
// rendering: operator name (first token of the trimmed line) → summed
// rows. Structure varies with the worker count (serial plans have no
// Gather), but every logical operator's row flow must not.
func explainRowCounts(t *testing.T, lines []string) (map[string]int64, int64) {
	t.Helper()
	counts := map[string]int64{}
	var executed int64 = -1
	for _, l := range lines {
		trimmed := strings.TrimSpace(l)
		if strings.HasPrefix(trimmed, "executed:") {
			fmt.Sscanf(trimmed, "executed: rows=%d", &executed)
			continue
		}
		i := strings.Index(trimmed, "(rows=")
		if i < 0 {
			continue
		}
		var rows int64
		if _, err := fmt.Sscanf(trimmed[i:], "(rows=%d", &rows); err != nil {
			t.Fatalf("unparseable stats suffix in %q: %v", l, err)
		}
		op, _, _ := strings.Cut(trimmed, " ")
		counts[op] += rows
	}
	return counts, executed
}

// TestExplainAnalyzeRowsInvariance: per-operator row counts in EXPLAIN
// ANALYZE are deterministic — identical at any parallelism, because
// clone sets are summed into one logical node.
func TestExplainAnalyzeRowsInvariance(t *testing.T) {
	db := observeDB(t)
	const q = "EXPLAIN ANALYZE SELECT n.label, COUNT(*) FROM ev e JOIN nv n ON n.id = e.dst GROUP BY n.label ORDER BY n.label"

	var base map[string]int64
	var baseExecuted int64
	for _, workers := range []int{1, 2, 8} {
		sess := observeSession(t, db, workers)
		counts, executed := explainRowCounts(t, explainLines(t, sess, q))
		if executed < 0 {
			t.Fatalf("workers=%d: no executed line", workers)
		}
		if base == nil {
			base, baseExecuted = counts, executed
			if base["Scan"] != 4+3 { // ev rows + nv rows
				t.Errorf("workers=%d: Scan rows = %d, want 7", workers, base["Scan"])
			}
			continue
		}
		if executed != baseExecuted {
			t.Errorf("workers=%d: executed rows = %d, want %d", workers, executed, baseExecuted)
		}
		// Parallel plans add plumbing (Gather) a serial plan has no use
		// for; the logical operators they share must move identical row
		// counts.
		for op, n := range base {
			if counts[op] != n {
				t.Errorf("workers=%d: %s rows = %d, want %d (workers=1)", workers, op, counts[op], n)
			}
		}
	}
}

// TestExplainAnalyzeTimesWithinStatement: a clone set's time is its
// slowest clone's, not the sum over clones, so at workers 2 no node of
// an EXPLAIN ANALYZE reports more time than the whole statement took.
func TestExplainAnalyzeTimesWithinStatement(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 64
	defer func() { exec.MinMorselRows = oldMorsels }()
	db := corpusDB(t)
	sess := observeSession(t, db, 2)
	timeOf := func(line, from string) time.Duration {
		t.Helper()
		i := strings.Index(line, from)
		if i < 0 {
			t.Fatalf("no %q in %q", from, line)
		}
		s := line[i+len(from):]
		if j := strings.IndexAny(s, ") "); j >= 0 {
			s = s[:j]
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		return d
	}
	for _, q := range []string{
		"SELECT a.grp, COUNT(*), SUM(b.val) FROM big a JOIN big b ON b.grp = a.grp GROUP BY a.grp",
		"SELECT a.id + b.id FROM big a JOIN big b ON b.grp = a.grp",
		"SELECT grp + 1, COUNT(*) FROM big GROUP BY grp",
	} {
		lines := explainLines(t, sess, "EXPLAIN ANALYZE "+q)
		stmt := timeOf(lines[1], "time=")
		for _, l := range lines[2:] {
			if d := timeOf(l, "time="); d > stmt {
				t.Errorf("%s: %q reports %v, above the statement's %v", q, strings.TrimSpace(l), d, stmt)
			}
		}
	}
}

// TestExplainAnalyzeWrite: ANALYZE of a write is a real write, routed
// and reported through the same admission paths the engine uses.
func TestExplainAnalyzeWrite(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)

	lines := explainLines(t, sess, "EXPLAIN ANALYZE INSERT INTO nv VALUES (9, 'z')")
	if len(lines) != 2 {
		t.Fatalf("lines = %q, want route + executed", lines)
	}
	if !strings.HasPrefix(lines[1], "executed via fast path: rows=1") {
		t.Errorf("executed line = %q", lines[1])
	}
	v, err := db.QueryScalar("SELECT COUNT(*) FROM nv WHERE id = 9")
	if err != nil || v.I != 1 {
		t.Errorf("ANALYZE insert not visible: %v %v", v, err)
	}
}

// TestPlanCacheNormalization: statements that differ only in
// whitespace, keyword case, or comments share one parse-cache entry;
// string literals stay byte-significant.
func TestPlanCacheNormalization(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)
	ctx := context.Background()

	// The bound/prepared path is the one that consults the cache; a
	// parameterless statement still gets a cache entry there.
	runQ := func(q string) {
		t.Helper()
		rows, _, err := sess.RunStreamBound(ctx, q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rowLines(t, rows)
	}

	// A single-table shape: the spellings differ only in the text the
	// normalization under test folds away.
	before := db.PreparedStats()
	runQ("SELECT * FROM nv WHERE label = 'a'")
	runQ("select  *   from nv where label = 'a'")
	runQ("SELECT * -- trailing note\nFROM nv WHERE label = 'a'")
	runQ("SELECT /* hint? no. */ * FROM nv WHERE label = 'a'")
	after := db.PreparedStats()
	if parses := after.Parses - before.Parses; parses != 1 {
		t.Errorf("equivalent spellings: %d parses, want 1 (one cache entry)", parses)
	}
	if hits := after.Hits - before.Hits; hits != 3 {
		t.Errorf("equivalent spellings: %d hits, want 3", hits)
	}

	// Literal bytes are not normalized: 'a b' and 'a  b' are different
	// queries, and keyword-case folding must not reach into them.
	before = after
	runQ("SELECT * FROM nv WHERE label = 'a b'")
	runQ("SELECT * FROM nv WHERE label = 'a  b'")
	runQ("SELECT * FROM nv WHERE label = 'A B'")
	after = db.PreparedStats()
	if parses := after.Parses - before.Parses; parses != 3 {
		t.Errorf("distinct literals: %d parses, want 3", parses)
	}
}

// TestShowStats: the registry snapshot surfaces as a two-column result
// with the counters this session's own activity fed.
func TestShowStats(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)
	ctx := context.Background()

	rows, _, err := sess.RunStream(ctx, "SELECT COUNT(*) FROM ev")
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)
	if _, _, err := sess.RunStream(ctx, "INSERT INTO nv VALUES (5, 'e')"); err != nil {
		t.Fatal(err)
	}
	// A bound execution touches the plan cache (plain text does not).
	bound, _, err := sess.RunStreamBound(ctx, "SELECT COUNT(*) FROM nv", nil)
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, bound)

	stats, _, err := sess.RunStream(ctx, "SHOW STATS")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := stats.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for i := 0; i < batch.Len(); i++ {
		row := batch.Row(i)
		got[row[0].S] = row[1].I
	}
	checks := []struct {
		name string
		min  int64
	}{
		{"engine.statements.select", 2},
		{"engine.statements.insert", 1},
		{"engine.statements.show", 1}, // SHOW STATS counts itself
		{"engine.fastpath.taken", 1},
		{"plancache.parses", 1},
		{"sched.budget_capacity", 0},
		{"mvcc.epoch", 1},
		{"engine.statement_latency.count", 1},
	}
	for _, c := range checks {
		v, ok := got[c.name]
		if !ok {
			t.Errorf("SHOW STATS: %s missing", c.name)
			continue
		}
		if v < c.min {
			t.Errorf("SHOW STATS: %s = %d, want >= %d", c.name, v, c.min)
		}
	}
}

// TestSlowQueryLog: statements over the threshold reach the installed
// sink with their duration, row count, and plan summary; fast
// statements (threshold disabled) do not.
func TestSlowQueryLog(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)
	ctx := context.Background()

	var captured []SlowQuery
	db.SetSlowQueryLog(func(q SlowQuery) { captured = append(captured, q) })
	defer db.SetSlowQueryLog(nil)

	// Threshold unset: nothing is logged.
	rows, _, err := sess.RunStream(ctx, "SELECT * FROM nv")
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)
	if len(captured) != 0 {
		t.Fatalf("threshold disabled, but %d records captured", len(captured))
	}

	db.SetSlowQueryThreshold(time.Nanosecond)
	defer db.SetSlowQueryThreshold(0)

	const q = "SELECT * FROM nv ORDER BY id"
	rows, _, err = sess.RunStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)
	if len(captured) != 1 {
		t.Fatalf("captured %d records, want 1", len(captured))
	}
	rec := captured[0]
	if rec.Text != q {
		t.Errorf("Text = %q, want %q", rec.Text, q)
	}
	if rec.Rows != 3 {
		t.Errorf("Rows = %d, want 3", rec.Rows)
	}
	if rec.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", rec.Duration)
	}
	if !strings.Contains(rec.Plan, "Scan") {
		t.Errorf("Plan = %q, want a Scan in the summary", rec.Plan)
	}
	if !strings.Contains(rec.String(), strconv.Quote(q)) {
		t.Errorf("String() = %q, want quoted statement text", rec.String())
	}

	// Writes are observed too; the plan field degrades to the kind.
	captured = nil
	if _, _, err := sess.RunStream(ctx, "INSERT INTO nv VALUES (7, 'g')"); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 1 {
		t.Fatalf("write: captured %d records, want 1", len(captured))
	}
	if captured[0].Rows != 1 {
		t.Errorf("write Rows = %d, want 1", captured[0].Rows)
	}

	// Counter: slow queries feed engine.slow_queries.
	if v := statValue(t, db, "engine.slow_queries"); v < 2 {
		t.Errorf("engine.slow_queries = %d, want >= 2", v)
	}
}

func statValue(t *testing.T, db *DB, name string) int64 {
	t.Helper()
	for _, s := range db.Stats().Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("stat %s not in registry snapshot", name)
	return 0
}

// TestSlowQueryStreamDuration: the logged duration of a streaming
// SELECT covers the drain, not just planning.
func TestSlowQueryStreamDuration(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)
	ctx := context.Background()

	var captured []SlowQuery
	db.SetSlowQueryLog(func(q SlowQuery) { captured = append(captured, q) })
	defer db.SetSlowQueryLog(nil)
	db.SetSlowQueryThreshold(time.Nanosecond)
	defer db.SetSlowQueryThreshold(0)

	rows, _, err := sess.RunStream(ctx, "SELECT * FROM ev")
	if err != nil {
		t.Fatal(err)
	}
	if len(captured) != 0 {
		t.Fatal("record logged before the stream was drained")
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := rows.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(captured) != 1 {
		t.Fatalf("captured %d records, want 1", len(captured))
	}
	if captured[0].Duration < 5*time.Millisecond {
		t.Errorf("Duration = %v, want >= 5ms (spans the stream)", captured[0].Duration)
	}
}

// TestExplainRejectsUnsupported: EXPLAIN of session-control statements
// is a clean error, not a panic or silent no-op.
func TestExplainRejectsUnsupported(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)
	if _, _, err := sess.RunStream(context.Background(), "EXPLAIN SET parallelism = 1"); err == nil {
		t.Fatal("EXPLAIN SET succeeded, want error")
	}
}
