package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// Statement-lifecycle tracing: span coverage on a forced-spill
// statement, the slow-log ↔ trace join, the vx$ system tables through
// plain SQL, SHOW TRACE, and the tracing/spill-placement knobs.

// traceByID finds a retained trace in the ring.
func traceByID(db *DB, id uint64) *trace.Collector {
	for _, tc := range db.Tracer().Recent() {
		if tc.ID() == id {
			return tc
		}
	}
	return nil
}

// stagesOf collects span stages by depth: depth-0 lifecycle stages as a
// set, and whether any operator/spill detail exists.
func stagesOf(spans []trace.Span) (lifecycle map[string]bool, opSpans, spillSpans int, depth0Sum int64) {
	lifecycle = map[string]bool{}
	for _, sp := range spans {
		if sp.Depth == 0 {
			lifecycle[sp.Stage] = true
			depth0Sum += sp.DurNs
			continue
		}
		if strings.HasPrefix(sp.Stage, "op:") {
			opSpans++
		}
		if sp.Stage == "spill" {
			spillSpans++
		}
	}
	return lifecycle, opSpans, spillSpans, depth0Sum
}

// TestTraceForcedSpillSpans runs a statement that spills under a 64KB
// grant and checks its trace end to end: the lifecycle stages are all
// present, per-operator and spill detail rides at depth >= 1, the
// depth-0 spans sum to roughly the slow-query-log duration, and the
// slow-log record joins the retained trace by id and fingerprint.
func TestTraceForcedSpillSpans(t *testing.T) {
	db := outOfCoreDB(t)

	var captured []SlowQuery
	db.SetSlowQueryLog(func(q SlowQuery) { captured = append(captured, q) })
	defer db.SetSlowQueryLog(nil)
	db.SetSlowQueryThreshold(time.Nanosecond)
	defer db.SetSlowQueryThreshold(0)

	s := db.NewSession()
	defer s.Close()
	mustSet(t, s, "SET parallelism = 2")
	mustSet(t, s, fmt.Sprintf("SET work_mem = %d", forceSpillWorkMem))

	// The bound path exercises the full lifecycle: cached parse, plan,
	// grant, open, drain.
	const q = `SELECT f.tag, COUNT(*) AS c, SUM(f.val) AS sm
		FROM fact f GROUP BY f.tag ORDER BY sm, c DESC, f.tag`
	rows, _, err := s.RunStreamBound(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Materialize(); err != nil {
		t.Fatal(err)
	}
	rows.Close()

	if len(captured) != 1 {
		t.Fatalf("captured %d slow-query records, want 1", len(captured))
	}
	rec := captured[0]
	if rec.TraceID == 0 {
		t.Fatal("slow-query record has no trace id")
	}
	if want := normalizeStatement(q); rec.Fingerprint != want {
		t.Errorf("Fingerprint = %q, want %q", rec.Fingerprint, want)
	}
	tc := traceByID(db, rec.TraceID)
	if tc == nil {
		t.Fatalf("trace %d not retained in the ring", rec.TraceID)
	}
	if tc.Text() != q {
		t.Errorf("trace text = %q, want the statement", tc.Text())
	}
	if !tc.Slow() {
		t.Error("trace not marked slow despite 1ns threshold")
	}

	lifecycle, opSpans, spillSpans, depth0Sum := stagesOf(tc.Spans())
	for _, stage := range []string{"parse", "plan", "grant", "open", "drain"} {
		if !lifecycle[stage] {
			t.Errorf("lifecycle span %q missing (have %v)", stage, lifecycle)
		}
	}
	if opSpans == 0 {
		t.Error("no per-operator spans recorded")
	}
	if spillSpans == 0 {
		t.Error("no spill spans recorded for a forced-spill statement")
	}

	// The depth-0 stages partition the statement's life: their sum must
	// land near the slow-log duration (gaps between stages are the only
	// slack, and they are tiny next to a spilling aggregation).
	d := int64(rec.Duration)
	if diff := depth0Sum - d; diff < -d/4 || diff > d/4 {
		t.Errorf("depth-0 span sum = %s vs slow-log duration %s (off by more than 25%%)",
			time.Duration(depth0Sum), rec.Duration)
	}
	if tc.TotalNs() < depth0Sum {
		t.Errorf("trace total %s < span sum %s", time.Duration(tc.TotalNs()), time.Duration(depth0Sum))
	}
}

// TestTraceAdmissionSpan: a recorded queue wait becomes the trace's
// leading admission span, and the trace total absorbs it.
func TestTraceAdmissionSpan(t *testing.T) {
	db := observeDB(t)
	s := db.NewSession()
	defer s.Close()

	const wait = 5 * time.Millisecond
	s.NoteQueueWait(wait)
	rows, _, err := s.RunStream(context.Background(), "SELECT * FROM nv")
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)

	tc := traceByID(db, s.LastTraceID())
	if tc == nil {
		t.Fatalf("trace %d not retained", s.LastTraceID())
	}
	spans := tc.Spans()
	if len(spans) == 0 || spans[0].Stage != "admission" {
		t.Fatalf("first span = %+v, want admission", spans)
	}
	if spans[0].StartNs != 0 {
		t.Errorf("admission StartNs = %d, want 0 (trace starts at enqueue)", spans[0].StartNs)
	}
	if got := time.Duration(spans[0].DurNs); got < wait || got > wait*3 {
		t.Errorf("admission span = %v, want ~%v", got, wait)
	}
	if tc.TotalNs() < int64(wait) {
		t.Errorf("trace total %v < admission wait %v", time.Duration(tc.TotalNs()), wait)
	}

	// The wait is consumed: the next statement starts clean.
	rows, _, err = s.RunStream(context.Background(), "SELECT * FROM nv")
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)
	next := traceByID(db, s.LastTraceID())
	if next == nil {
		t.Fatal("second trace not retained")
	}
	if sp := next.Spans(); len(sp) > 0 && sp[0].Stage == "admission" {
		t.Error("queue wait leaked into the next statement's trace")
	}
}

// TestSysTablesSQL: the vx$ views answer plain SQL — filters, ORDER BY,
// LIMIT, and joins between vx$traces and vx$trace_spans.
func TestSysTablesSQL(t *testing.T) {
	db := observeDB(t)
	s := db.NewSession()
	defer s.Close()
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		rows, _, err := s.RunStream(ctx, "SELECT * FROM ev")
		if err != nil {
			t.Fatal(err)
		}
		rowLines(t, rows)
	}

	// The ISSUE's acceptance query.
	rows, _, err := s.RunStream(ctx, "SELECT * FROM vx$traces ORDER BY total_ns DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := rows.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() < 3 {
		t.Fatalf("vx$traces has %d rows, want >= 3", b.Len())
	}
	var last int64 = 1 << 62
	idx := b.Schema.IndexOf("total_ns")
	for i := 0; i < b.Len(); i++ {
		v := b.Row(i)[idx].I
		if v > last {
			t.Fatalf("vx$traces not ordered by total_ns DESC: row %d", i)
		}
		last = v
	}

	// Join the span table against the trace table.
	rows, _, err = s.RunStream(ctx, `SELECT sp.stage, sp.dur_us
		FROM vx$trace_spans sp JOIN vx$traces tr ON sp.trace_id = tr.trace_id
		WHERE sp.depth = 0 ORDER BY sp.trace_id, sp.seq`)
	if err != nil {
		t.Fatal(err)
	}
	joined := rowLines(t, rows)
	if len(joined) == 0 {
		t.Fatal("vx$trace_spans ⋈ vx$traces returned nothing")
	}
	var sawDrain bool
	for _, l := range joined {
		if strings.HasPrefix(l, "drain") {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Errorf("no drain span in joined output: %q", joined)
	}

	// vx$active_statements sees the statement that scans it (the view
	// materializes while the scan's own trace is live).
	rows, _, err = s.RunStream(ctx, "SELECT stmt FROM vx$active_statements")
	if err != nil {
		t.Fatal(err)
	}
	active := rowLines(t, rows)
	if len(active) < 1 || !strings.Contains(active[0], "vx$active_statements") {
		t.Errorf("vx$active_statements = %q, want the scanning statement itself", active)
	}

	// vx$sessions reflects this session's settings.
	mustSet(t, s, "SET parallelism = 3")
	mustSet(t, s, "SET work_mem = 123456")
	rows, _, err = s.RunStream(ctx, "SELECT parallelism, work_mem FROM vx$sessions ORDER BY session_id")
	if err != nil {
		t.Fatal(err)
	}
	sess := rowLines(t, rows)
	found := false
	for _, l := range sess {
		if l == "3\x1f123456" {
			found = true
		}
	}
	if !found {
		t.Errorf("vx$sessions rows %q lack parallelism=3 work_mem=123456", sess)
	}

	// Unknown vx$ names fail cleanly.
	if _, _, err := s.RunStream(ctx, "SELECT * FROM vx$nope"); err == nil {
		t.Fatal("SELECT from vx$nope succeeded")
	}
}

// TestShowTrace: the interactive view of the last statement's spans.
func TestShowTrace(t *testing.T) {
	db := observeDB(t)
	s := db.NewSession()
	defer s.Close()
	ctx := context.Background()

	rows, _, err := s.RunStream(ctx, "SELECT * FROM ev ORDER BY src")
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)

	show, _, err := s.RunStream(ctx, "SHOW TRACE")
	if err != nil {
		t.Fatal(err)
	}
	lines := rowLines(t, show)
	if len(lines) < 2 {
		t.Fatalf("SHOW TRACE returned %d spans", len(lines))
	}
	var sawDrain bool
	for _, l := range lines {
		if strings.Contains(l, "drain") {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Errorf("SHOW TRACE lacks a drain span: %q", lines)
	}
	// SHOW TRACE is a control statement: running it again shows the
	// same SELECT, not the SHOW itself.
	again, _, err := s.RunStream(ctx, "SHOW TRACE")
	if err != nil {
		t.Fatal(err)
	}
	if got := rowLines(t, again); len(got) != len(lines) {
		t.Errorf("second SHOW TRACE = %d spans, want %d (unchanged)", len(got), len(lines))
	}
}

// TestTraceSamplingOff: SET trace_sample = 0 turns collection off —
// statements run untraced (no ring growth, LastTraceID 0) and SET
// trace_sample = 1 restores full tracing.
func TestTraceSamplingOff(t *testing.T) {
	db := observeDB(t)
	s := db.NewSession()
	defer s.Close()
	ctx := context.Background()

	mustSet(t, s, "SET trace_sample = 0")
	before := db.Tracer().RingLen()
	rows, _, err := s.RunStream(ctx, "SELECT * FROM nv")
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)
	if s.LastTraceID() != 0 {
		t.Errorf("LastTraceID = %d with tracing off, want 0", s.LastTraceID())
	}
	if got := db.Tracer().RingLen(); got != before {
		t.Errorf("ring grew %d -> %d with tracing off", before, got)
	}

	mustSet(t, s, "SET trace_sample = 1")
	rows, _, err = s.RunStream(ctx, "SELECT * FROM nv")
	if err != nil {
		t.Fatal(err)
	}
	rowLines(t, rows)
	if s.LastTraceID() == 0 {
		t.Error("LastTraceID = 0 after re-enabling tracing")
	}
}

// TestSpillPlacementKnobs: SET temp_tablespace routes spill runs into
// the chosen directory, SHOW reads the knobs back, and temp_file_limit
// caps disk usage with a clean statement error.
func TestSpillPlacementKnobs(t *testing.T) {
	db := outOfCoreDB(t)
	s := db.NewSession()
	defer s.Close()
	ctx := context.Background()

	dir := t.TempDir()
	mustSet(t, s, fmt.Sprintf("SET temp_tablespace = '%s'", dir))
	defer storage.SetSpillDir("")
	if got := storage.SpillDirPath(); got != dir {
		t.Fatalf("SpillDirPath = %q, want %q", got, dir)
	}
	show, _, err := s.RunStream(ctx, "SHOW temp_tablespace")
	if err != nil {
		t.Fatal(err)
	}
	if lines := rowLines(t, show); len(lines) != 1 || lines[0] != dir {
		t.Errorf("SHOW temp_tablespace = %q, want %q", lines, dir)
	}

	mustSet(t, s, "SET parallelism = 2")
	mustSet(t, s, fmt.Sprintf("SET work_mem = %d", forceSpillWorkMem))
	const q = "SELECT tag, SUM(val) AS sm FROM fact GROUP BY tag ORDER BY sm, tag"

	runsBefore, _ := storage.SpillTotals()
	rows, err := s.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("degenerate fixture")
	}
	if runs, _ := storage.SpillTotals(); runs <= runsBefore {
		t.Fatalf("statement did not spill (runs %d -> %d)", runsBefore, runs)
	}
	// Spill files are statement-scoped: the directory drains back to
	// empty accounting once the statement finishes.
	if got := storage.SpillDirBytes(); got != 0 {
		t.Errorf("spill.dir_bytes = %d after statement end, want 0", got)
	}

	// A 1-byte cap refuses the first spill write; the statement fails
	// with the cap error and the session stays usable.
	mustSet(t, s, "SET temp_file_limit = 1")
	defer storage.SetSpillDiskCap(0)
	if _, err := s.QueryContext(ctx, q); err == nil || !strings.Contains(err.Error(), "temp_file_limit") {
		t.Fatalf("capped spill error = %v, want temp_file_limit refusal", err)
	}
	mustSet(t, s, "SET temp_file_limit = 0")
	mustSet(t, s, "SET work_mem = 0")
	if _, err := s.QueryContext(ctx, q); err != nil {
		t.Fatalf("session unusable after cap error: %v", err)
	}

	// The gauges surface through the registry.
	if v := statValue(t, db, "spill.dir_bytes"); v != 0 {
		t.Errorf("spill.dir_bytes gauge = %d, want 0 at rest", v)
	}
	statValue(t, db, "spill.disk_cap")
	statValue(t, db, "trace.ring_len")
	statValue(t, db, "trace.sampling")
}

// TestBoundRerunOperatorCounters: a bound SELECT run twice on one
// session reports each execution's own operator counters — the two
// traces' per-operator rows= details are equal, not cumulative.
func TestBoundRerunOperatorCounters(t *testing.T) {
	db := observeDB(t)
	sess := observeSession(t, db, 2)
	opDetails := func() []string {
		t.Helper()
		rows, _, err := sess.RunStreamBound(context.Background(), "SELECT dst FROM ev WHERE src = $1", vals(storage.Int64(1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := rowLines(t, rows); len(got) != 2 {
			t.Fatalf("src = 1: %d rows, want 2", len(got))
		}
		rows.Close()
		tr := traceByID(db, sess.LastTraceID())
		if tr == nil {
			t.Fatal("trace not retained")
		}
		var out []string
		for _, sp := range tr.Spans() {
			if strings.HasPrefix(sp.Stage, "op:") {
				out = append(out, sp.Stage+" "+sp.Detail)
			}
		}
		return out
	}
	first, second := opDetails(), opDetails()
	if !strings.Contains(strings.Join(first, "\n"), "rows=2 ") {
		t.Fatalf("first execution's operator spans lack rows=2: %q", first)
	}
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Errorf("second execution's operator counters differ:\n first %q\nsecond %q", first, second)
	}
}
