package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/storage"
)

// Out-of-core acceptance tests: a 64KB per-statement memory grant over
// inputs several times that size must complete every statement with
// results byte-identical to unlimited memory at workers 1, 2 and 8,
// surface per-node spill counters in EXPLAIN ANALYZE, and route budget
// exhaustion on non-spillable operators to a clean error.

const forceSpillWorkMem = 64 << 10

// outOfCoreDB builds a database whose working sets are several times
// the force-spill grant: ~20k-row fact table (~1MB resident) plus a
// small dimension table to join against.
func outOfCoreDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db,
		"CREATE TABLE fact (id INTEGER NOT NULL, grp INTEGER, val DOUBLE, tag VARCHAR)",
		"CREATE TABLE dim (grp INTEGER NOT NULL, label VARCHAR)",
	)
	fact, err := db.Catalog().Get("fact")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		grp := storage.Int64(int64(rng.Intn(500)))
		if rng.Intn(60) == 0 {
			grp = storage.Null(storage.TypeInt64)
		}
		if err := fact.AppendRow(
			storage.Int64(int64(i)), grp,
			storage.Float64(rng.NormFloat64()*100),
			storage.Str(fmt.Sprintf("tag-%04d", rng.Intn(1500))),
		); err != nil {
			t.Fatal(err)
		}
	}
	dim, err := db.Catalog().Get("dim")
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 500; g++ {
		if err := dim.AppendRow(storage.Int64(int64(g)), storage.Str(fmt.Sprintf("label-%03d", g%23))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// sessionQuery runs q on a fresh session configured with the given
// worker count and work_mem (0 = engine default/unlimited).
func sessionQuery(t *testing.T, db *DB, q string, workers int, workMem int64) *Rows {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	mustSet(t, s, fmt.Sprintf("SET parallelism = %d", workers))
	mustSet(t, s, fmt.Sprintf("SET work_mem = %d", workMem))
	rows, err := s.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("workers=%d work_mem=%d %s: %v", workers, workMem, q, err)
	}
	return rows
}

func mustSet(t *testing.T, s *Session, stmt string) {
	t.Helper()
	if _, _, err := s.Run(context.Background(), stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}

func TestOutOfCoreAcceptance64KB(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 64
	defer func() { exec.MinMorselRows = oldMorsels }()
	db := outOfCoreDB(t)

	// ORDER BY + GROUP BY + join in one statement over inputs several
	// times the 64KB grant.
	q := `SELECT f.tag, d.label, COUNT(*) AS c, SUM(f.val) AS s
		FROM fact f JOIN dim d ON f.grp = d.grp
		GROUP BY f.tag, d.label
		ORDER BY s, c DESC, f.tag`
	want := sessionQuery(t, db, q, 1, 0)
	if want.Len() < 1000 {
		t.Fatalf("degenerate fixture: %d result rows", want.Len())
	}
	for _, workers := range []int{1, 2, 8} {
		got := sessionQuery(t, db, q, workers, forceSpillWorkMem)
		if err := diffRows(fmt.Sprintf("workers=%d", workers), got, want); err != nil {
			t.Error(err)
		}
	}

	// The spill totals must have advanced, and SHOW STATS must carry
	// them over the wire path.
	runs, bytes := storage.SpillTotals()
	if runs == 0 || bytes == 0 {
		t.Fatalf("force-spill runs left no totals: runs=%d bytes=%d", runs, bytes)
	}
	s := db.NewSession()
	defer s.Close()
	stats, err := s.QueryContext(context.Background(), "SHOW STATS")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]int64{}
	for i := 0; i < stats.Len(); i++ {
		found[stats.Value(i, 0).S] = stats.Value(i, 1).I
	}
	if found["spill.runs"] <= 0 || found["spill.bytes"] <= 0 {
		t.Errorf("SHOW STATS spill counters = %d runs / %d bytes", found["spill.runs"], found["spill.bytes"])
	}
	if _, ok := found["mem.pool_capacity"]; !ok {
		t.Error("SHOW STATS is missing the memory-pool gauges")
	}
}

// TestSpillPerOperatorHeapBound runs each blocking operator family as
// its own statement under the 64KB grant. Each must go to disk (at
// least one spill run over the statement) and must not hold its input:
// the Go heap, sampled while the statement drains, stays within half
// the input plus a fixed 48MiB allowance for the executor's working
// floor and allocator churn. The allowance dominates at this input
// size; the input term is what bites on a large one.
func TestSpillPerOperatorHeapBound(t *testing.T) {
	db := outOfCoreDB(t)
	input := drainBytes(t, db, "SELECT id, grp, val, tag FROM fact")
	if input < 4*forceSpillWorkMem {
		t.Fatalf("fixture too small to exceed the grant: input %d bytes, grant %d", input, forceSpillWorkMem)
	}
	peakBound := input/2 + 48<<20
	for _, c := range []struct{ name, q string }{
		{"sort", "SELECT id, tag FROM fact ORDER BY tag, id"},
		// The fact table sits on the build side, so the join itself
		// goes out of core, not just a probe of the small dim table.
		{"join", "SELECT d.label, f.id FROM dim d JOIN fact f ON d.grp = f.grp"},
		{"aggregate", "SELECT tag, COUNT(*) AS c, SUM(val) AS s FROM fact GROUP BY tag"},
		// A join feeding an aggregate, in parallel: the join spills (fact
		// is the build side) and the hybrid aggregate above it must not
		// hold more than the grant allows plus one window's new groups.
		{"join+aggregate", "SELECT d.label, COUNT(*), SUM(f.val) FROM dim d JOIN fact f ON d.grp = f.grp GROUP BY d.label"},
	} {
		s := db.NewSession()
		if c.name == "join+aggregate" {
			mustSet(t, s, "SET parallelism = 2")
		}
		mustSet(t, s, fmt.Sprintf("SET work_mem = %d", forceSpillWorkMem))
		runs0, _ := storage.SpillTotals()
		sampler := startHeapSampler()
		rows, _, err := s.RunStream(context.Background(), c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n := 0
		for {
			b, err := rows.Next()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if b == nil {
				break
			}
			n += b.Len()
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		peak := sampler.finish()
		runs1, _ := storage.SpillTotals()
		s.Close()
		if n == 0 {
			t.Errorf("%s: empty result", c.name)
		}
		if runs1-runs0 < 1 {
			t.Errorf("%s under the %d-byte grant never spilled", c.name, forceSpillWorkMem)
		}
		if peak > peakBound {
			t.Errorf("%s peaked at %d heap bytes under the grant (bound %d)", c.name, peak, peakBound)
		}
	}
}

// drainBytes streams q and sums the resident size of its batches.
func drainBytes(t *testing.T, db *DB, q string) int64 {
	t.Helper()
	rows, err := db.QueryStream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var total int64
	for {
		b, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return total
		}
		total += storage.BatchBytes(b)
	}
}

// heapSampler polls the Go heap every 2ms and tracks the peak,
// relative to a post-GC baseline taken at start.
type heapSampler struct {
	baseline, peak uint64
	stop           chan struct{}
	done           sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &heapSampler{baseline: ms.HeapAlloc, peak: ms.HeapAlloc, stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				s.peak = max(s.peak, ms.HeapAlloc)
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak over the baseline.
func (s *heapSampler) finish() int64 {
	close(s.stop)
	s.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.peak = max(s.peak, ms.HeapAlloc)
	return int64(s.peak - s.baseline)
}

func TestExplainAnalyzeReportsSpill(t *testing.T) {
	db := outOfCoreDB(t)
	s := db.NewSession()
	defer s.Close()
	mustSet(t, s, fmt.Sprintf("SET work_mem = %d", forceSpillWorkMem))
	rows, err := s.QueryContext(context.Background(),
		"EXPLAIN ANALYZE SELECT id, tag FROM fact ORDER BY tag, id")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for i := 0; i < rows.Len(); i++ {
		plan.WriteString(rows.Value(i, 0).S)
		plan.WriteByte('\n')
	}
	if !strings.Contains(plan.String(), "spilled=") {
		t.Fatalf("EXPLAIN ANALYZE under a 64KB grant shows no spilled= annotation:\n%s", plan.String())
	}
}

// TestExplainAnalyzeScansReadOnce: under memory pressure, a join
// feeding a GROUP BY reads each table exactly once, so every Scan in
// EXPLAIN ANALYZE reports its table's row count — a restarted operator
// would count its input twice.
func TestExplainAnalyzeScansReadOnce(t *testing.T) {
	db := outOfCoreDB(t)
	s := db.NewSession()
	defer s.Close()
	mustSet(t, s, "SET parallelism = 2")
	mustSet(t, s, fmt.Sprintf("SET work_mem = %d", forceSpillWorkMem))
	rows, err := s.QueryContext(context.Background(),
		"EXPLAIN ANALYZE SELECT d.label, COUNT(*), SUM(f.val) FROM fact f JOIN dim d ON f.grp = d.grp GROUP BY d.label")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"fact": "rows=20000 ", "dim": "rows=500 "}
	var plan strings.Builder
	for i := 0; i < rows.Len(); i++ {
		plan.WriteString(rows.Value(i, 0).S)
		plan.WriteByte('\n')
	}
	for _, line := range strings.Split(plan.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "Scan" {
			continue
		}
		if !strings.Contains(line, want[f[1]]) {
			t.Errorf("Scan %s: %q, want %s", f[1], strings.TrimSpace(line), want[f[1]])
		}
		delete(want, f[1])
	}
	if len(want) > 0 {
		t.Errorf("plan lacks scans of %v:\n%s", want, plan.String())
	}
}

// TestProjectOverAggregateReadsAggregate: a projection over a GROUP BY
// with one group per row reads the aggregate's output directly. Under
// the 64KB grant at workers 2 and 8 its rows match workers 1 byte for
// byte, no Gather sits above the HashAggregate, the statement's spill
// runs are the aggregate's own, and a bound re-execution returns the
// same rows.
func TestProjectOverAggregateReadsAggregate(t *testing.T) {
	db := outOfCoreDB(t)
	const q = "SELECT id + 0 FROM fact GROUP BY id"
	want := sessionQuery(t, db, q, 1, 0)
	spillRuns := func(line string) int64 {
		var bytes, runs int64
		if i := strings.Index(line, "spilled="); i >= 0 {
			fmt.Sscanf(line[i:], "spilled=%dB/%druns", &bytes, &runs)
		}
		return runs
	}
	for _, workers := range []int{2, 8} {
		s := observeSession(t, db, workers)
		mustSet(t, s, fmt.Sprintf("SET work_mem = %d", forceSpillWorkMem))

		plan := explainLines(t, s, "EXPLAIN ANALYZE "+q)
		agg := -1
		var aggRuns, stmtRuns int64
		for i, line := range plan {
			if strings.HasPrefix(strings.TrimSpace(line), "HashAggregate") {
				agg, aggRuns = i, spillRuns(line)
			}
			stmtRuns += spillRuns(line)
		}
		if agg < 0 {
			t.Fatalf("workers=%d: no HashAggregate in\n%s", workers, strings.Join(plan, "\n"))
		}
		for _, line := range plan[:agg] {
			if strings.Contains(line, "Gather") {
				t.Fatalf("workers=%d: Gather above the aggregate:\n%s", workers, strings.Join(plan, "\n"))
			}
		}
		if aggRuns == 0 || stmtRuns != aggRuns {
			t.Fatalf("workers=%d: statement spilled %d runs, the aggregate %d; want the aggregate's own, at least 1:\n%s",
				workers, stmtRuns, aggRuns, strings.Join(plan, "\n"))
		}

		run := func() *Rows {
			t.Helper()
			rows, _, err := s.RunStreamBound(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rows.Materialize(); err != nil {
				t.Fatal(err)
			}
			return rows
		}
		first := run()
		second := run()
		for i, got := range []*Rows{first, second} {
			if err := diffRows(fmt.Sprintf("workers=%d run %d", workers, i+1), got, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSpillDifferentialCorpus force-spills the whole parallel feature
// corpus and compares byte-for-byte against unlimited memory at
// workers 1, 2 and 8.
func TestSpillDifferentialCorpus(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 64
	defer func() { exec.MinMorselRows = oldMorsels }()
	db := corpusDB(t)
	for _, q := range featureCorpus {
		want := sessionQuery(t, db, q, 1, 0)
		for _, workers := range []int{1, 2, 8} {
			got := sessionQuery(t, db, q, workers, forceSpillWorkMem)
			if err := diffRows(fmt.Sprintf("workers=%d %s", workers, q), got, want); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestSpillLowCardinalityKeys: RLE packs a run of equal keys into a
// few bytes, so a spill frame of a low-cardinality column holds far
// more rows than bytes. Sort runs and Grace join partitions of such a
// column must read back intact at workers 1, 2 and 8.
func TestSpillLowCardinalityKeys(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (k INTEGER, v INTEGER)", "CREATE TABLE keys (k INTEGER)")
	tab, err := db.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 20000; n++ {
		if err := tab.AppendRow(storage.Int64(int64(n%3)), storage.Int64(int64(n))); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := db.Catalog().Get("keys")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := keys.AppendRow(storage.Int64(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT k FROM t ORDER BY k",
		// The build side is t's single k column: a Grace join spills it
		// partitioned by the 3-valued key.
		"SELECT keys.k FROM keys JOIN t ON keys.k = t.k",
	} {
		want := sessionQuery(t, db, q, 1, 0)
		if want.Len() != 20000 {
			t.Fatalf("%s: %d rows, want 20000", q, want.Len())
		}
		for _, workers := range []int{1, 2, 8} {
			got := sessionQuery(t, db, q, workers, forceSpillWorkMem)
			if err := diffRows(fmt.Sprintf("workers=%d %s", workers, q), got, want); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestOutOfMemoryBudgetError(t *testing.T) {
	db := outOfCoreDB(t)
	s := db.NewSession()
	defer s.Close()
	// DISTINCT's seen-set has no spill path: a tiny grant must fail
	// cleanly, not OOM or hang.
	mustSet(t, s, "SET work_mem = 2048")
	_, err := s.QueryContext(context.Background(), "SELECT DISTINCT id, tag FROM fact")
	if !errors.Is(err, exec.ErrOutOfMemoryBudget) {
		t.Fatalf("distinct under 2KB grant: %v", err)
	}
	// Raising work_mem on the same session recovers. Force the engine
	// default to unlimited so a VXDB_WORK_MEM seed can't keep the grant tiny.
	db.SetWorkMem(0)
	mustSet(t, s, "SET work_mem = 0")
	if _, err := s.QueryContext(context.Background(), "SELECT DISTINCT id, tag FROM fact LIMIT 5"); err != nil {
		t.Fatal(err)
	}
}

func TestProcessMemoryPoolBindsStatements(t *testing.T) {
	db := outOfCoreDB(t)
	db.SetMemoryBudget(2048)
	defer db.SetMemoryBudget(0)
	if _, err := db.Query("SELECT DISTINCT id, tag FROM fact"); !errors.Is(err, exec.ErrOutOfMemoryBudget) {
		t.Fatalf("distinct under a 2KB process pool: %v", err)
	}
	// Spillable statements still complete under the same pool.
	rows, err := db.Query("SELECT id FROM fact ORDER BY tag, id LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 10 {
		t.Fatalf("sorted rows under tiny pool: %d", rows.Len())
	}
}

func TestSetAndShowWorkMem(t *testing.T) {
	db := New()
	s := db.NewSession()
	defer s.Close()
	show := func(name string) int64 {
		t.Helper()
		rows, err := s.QueryContext(context.Background(), "SHOW "+name)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Value(0, 0).I
	}
	if got := show("work_mem"); got != db.WorkMem() {
		// VXDB_WORK_MEM may seed a non-zero engine default; the session
		// must report whatever the engine resolved.
		t.Fatalf("default work_mem = %d, want engine default %d", got, db.WorkMem())
	}
	mustSet(t, s, "SET work_mem = 4096")
	if got := show("work_mem"); got != 4096 {
		t.Fatalf("work_mem after SET = %d", got)
	}
	db.SetWorkMem(1 << 20)
	mustSet(t, s, "SET work_mem = 0") // back to the engine default
	if got := show("work_mem"); got != 1<<20 {
		t.Fatalf("work_mem after reset = %d, want engine default", got)
	}
	db.SetMemoryBudget(1 << 21)
	if got := show("memory_budget"); got != 1<<21 {
		t.Fatalf("memory_budget = %d", got)
	}
	if _, _, err := s.Run(context.Background(), "SET work_mem = -1"); err == nil {
		t.Fatal("negative work_mem accepted")
	}
}

// TestParallelPlanCacheHitRebinds: a parallel plan — an aggregate's
// partitioned fold, or hash-join clones sharing one build side — run
// by repeated bound executions returns the same rows each time and
// follows fresh bindings instead of serving stale rows.
func TestParallelPlanCacheHitRebinds(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 64
	defer func() { exec.MinMorselRows = oldMorsels }()
	db := corpusDB(t)
	s := db.NewSession()
	defer s.Close()
	mustSet(t, s, "SET parallelism = 4")
	ctx := context.Background()

	for _, c := range []struct {
		q     string
		shape []string
	}{
		// The projection over an aggregate reads the output of a
		// partitioned fold.
		{"SELECT id + $1 FROM big GROUP BY id", []string{"HashAggregate", "[workers=4]"}},
		// The projection over a join fuses into join clones over probe
		// morsels, all probing one shared build.
		{"SELECT e.dst + $1 FROM edges e JOIN ranks r ON e.src = r.id", []string{"Gather", "HashJoin"}},
	} {
		explain, err := s.QueryContext(ctx, "EXPLAIN "+strings.Replace(c.q, "$1", "0", 1))
		if err != nil {
			t.Fatal(err)
		}
		var plan strings.Builder
		for i := 0; i < explain.Len(); i++ {
			plan.WriteString(explain.Value(i, 0).S)
			plan.WriteByte('\n')
		}
		for _, want := range c.shape {
			if !strings.Contains(plan.String(), want) {
				t.Fatalf("fixture no longer plans %q at workers=4:\n%s", want, plan.String())
			}
		}

		run := func(arg int64) *Rows {
			t.Helper()
			rows, _, err := s.RunStreamBound(ctx, c.q, vals(storage.Int64(arg)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rows.Materialize(); err != nil {
				t.Fatal(err)
			}
			return rows
		}
		first := run(0)
		second := run(0)
		if err := diffRows(c.q, second, first); err != nil {
			t.Fatal(err)
		}
		// Fresh bindings must not serve stale rows.
		shifted := run(1000)
		if shifted.Len() != first.Len() {
			t.Fatalf("%s: rebound run: %d rows, want %d", c.q, shifted.Len(), first.Len())
		}
		for i := 0; i < first.Len(); i++ {
			if shifted.Value(i, 0).I != first.Value(i, 0).I+1000 {
				t.Fatalf("%s: row %d: %d, want %d", c.q, i, shifted.Value(i, 0).I, first.Value(i, 0).I+1000)
			}
		}
	}
}

// TestPlanCacheKeysOnWorkMem: a bound statement re-executed after a
// work_mem change still returns its rows.
func TestPlanCacheKeysOnWorkMem(t *testing.T) {
	db := corpusDB(t)
	s := db.NewSession()
	defer s.Close()
	ctx := context.Background()
	q := "SELECT id FROM big WHERE id < $1 ORDER BY id"
	run := func() *Rows {
		t.Helper()
		rows, _, err := s.RunStreamBound(ctx, q, vals(storage.Int64(50)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Materialize(); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	run()
	run()
	// Pick a grant guaranteed to differ from the current effective value
	// (VXDB_WORK_MEM may already seed the engine default to forceSpillWorkMem).
	newWM := int64(forceSpillWorkMem)
	if newWM == db.WorkMem() {
		newWM *= 2
	}
	mustSet(t, s, fmt.Sprintf("SET work_mem = %d", newWM))
	want := run()
	if want.Len() != 50 {
		t.Fatalf("rows after work_mem change: %d", want.Len())
	}
}
