package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
)

// prepDB builds the prepared-statement corpus database: a plain table
// with every column type (and NULLs) plus a hash-partitioned edge
// table for routing and pruning coverage.
func prepDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db,
		"CREATE TABLE people (id INTEGER NOT NULL, name VARCHAR, age INTEGER, score DOUBLE, vip BOOLEAN)",
		`INSERT INTO people VALUES
			(1, 'ada', 36, 9.5, TRUE),
			(2, 'bob', 25, 4.5, FALSE),
			(3, 'cyd', NULL, 7.25, FALSE),
			(4, 'it''s', 25, NULL, TRUE)`,
		"CREATE TABLE edges (src INTEGER NOT NULL, dst INTEGER, w DOUBLE) PARTITION BY HASH(src) SHARDS 4",
	)
	var ins strings.Builder
	ins.WriteString("INSERT INTO edges VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d, %d.5)", i%20, i, i%7)
	}
	mustExec(t, db, ins.String())
	return db
}

// rowLines renders a result to one string per row for comparison.
func rowLines(t *testing.T, rows *Rows) []string {
	t.Helper()
	if _, err := rows.Materialize(); err != nil {
		t.Fatal(err)
	}
	out := make([]string, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		parts := make([]string, rows.Schema().Len())
		for j := range parts {
			parts[j] = rows.Value(i, j).String()
		}
		out[i] = strings.Join(parts, "\x1f")
	}
	return out
}

// corpusCase pairs a parameterized statement with its inline-literal
// equivalent.
type corpusCase struct {
	bound string
	args  []storage.Value
	lit   string
}

// preparedCorpus: every SQL feature the sqlfeatures tests exercise
// appears with at least one injected parameter.
var preparedCorpus = []corpusCase{
	{"SELECT id, name FROM people WHERE id = $1", vals(storage.Int64(2)),
		"SELECT id, name FROM people WHERE id = 2"},
	{"SELECT $1, $2, $3, $4", vals(storage.Int64(7), storage.Str("it's"), storage.Float64(1.5), storage.Bool(true)),
		"SELECT 7, 'it''s', 1.5, TRUE"},
	{"SELECT name FROM people WHERE age > $1 AND score < $2 ORDER BY id", vals(storage.Int64(20), storage.Float64(9.0)),
		"SELECT name FROM people WHERE age > 20 AND score < 9.0 ORDER BY id"},
	{"SELECT name FROM people WHERE name = $1", vals(storage.Str("it's")),
		"SELECT name FROM people WHERE name = 'it''s'"},
	{"SELECT name, CASE WHEN score > $1 THEN 'hi' ELSE 'lo' END FROM people ORDER BY id", vals(storage.Float64(5.0)),
		"SELECT name, CASE WHEN score > 5.0 THEN 'hi' ELSE 'lo' END FROM people ORDER BY id"},
	{"SELECT COUNT(*), AVG(age) FROM people WHERE age >= $1", vals(storage.Int64(25)),
		"SELECT COUNT(*), AVG(age) FROM people WHERE age >= 25"},
	{"SELECT COUNT(*) FROM people WHERE age IN ($1, $2)", vals(storage.Int64(25), storage.Int64(36)),
		"SELECT COUNT(*) FROM people WHERE age IN (25, 36)"},
	{"SELECT COUNT(*) FROM people WHERE name LIKE $1", vals(storage.Str("%d%")),
		"SELECT COUNT(*) FROM people WHERE name LIKE '%d%'"},
	{"SELECT COUNT(*) FROM people WHERE age = $1", vals(storage.Null(storage.TypeInt64)),
		"SELECT COUNT(*) FROM people WHERE age = NULL"},
	{"SELECT dst FROM edges WHERE src = $1 ORDER BY dst", vals(storage.Int64(7)),
		"SELECT dst FROM edges WHERE src = 7 ORDER BY dst"},
	{"SELECT p.name, e.dst FROM people p, edges e WHERE p.id = e.src AND e.w > $1 ORDER BY p.id, e.dst", vals(storage.Float64(4.0)),
		"SELECT p.name, e.dst FROM people p, edges e WHERE p.id = e.src AND e.w > 4.0 ORDER BY p.id, e.dst"},
	{"SELECT p.name FROM edges e JOIN people p ON p.id = e.dst WHERE e.src = $1", vals(storage.Int64(3)),
		"SELECT p.name FROM edges e JOIN people p ON p.id = e.dst WHERE e.src = 3"},
	{"SELECT src, COUNT(*) AS deg FROM edges GROUP BY src HAVING COUNT(*) > $1 ORDER BY src", vals(storage.Int64(9)),
		"SELECT src, COUNT(*) AS deg FROM edges GROUP BY src HAVING COUNT(*) > 9 ORDER BY src"},
	{"SELECT DISTINCT w FROM edges WHERE src < $1", vals(storage.Int64(10)),
		"SELECT DISTINCT w FROM edges WHERE src < 10"},
	{"WITH big AS (SELECT src, dst FROM edges WHERE w > $1) SELECT COUNT(*) FROM big", vals(storage.Float64(3.0)),
		"WITH big AS (SELECT src, dst FROM edges WHERE w > 3.0) SELECT COUNT(*) FROM big"},
	{"SELECT dst FROM edges WHERE src = $1 UNION ALL SELECT id FROM people WHERE id = $2 ORDER BY 1", vals(storage.Int64(3), storage.Int64(1)),
		"SELECT dst FROM edges WHERE src = 3 UNION ALL SELECT id FROM people WHERE id = 1 ORDER BY 1"},
}

// routedCorpus keys a sharded table large enough to morselize (hops,
// with MinMorselRows lowered) on its partition key: a bare lookup, a
// join input and a NULL key. Each `$1` must plan exactly like its
// literal — the same shard and the same fragments.
var routedCorpus = []corpusCase{
	{"SELECT dst FROM hops WHERE src = $1", vals(storage.Int64(7)),
		"SELECT dst FROM hops WHERE src = 7"},
	{"SELECT h.dst, p.name FROM hops h JOIN people p ON p.id = h.dst WHERE h.src = $1", vals(storage.Int64(3)),
		"SELECT h.dst, p.name FROM hops h JOIN people p ON p.id = h.dst WHERE h.src = 3"},
	{"SELECT COUNT(*) FROM hops WHERE src = $1", vals(storage.Null(storage.TypeInt64)),
		"SELECT COUNT(*) FROM hops WHERE src = NULL"},
}

func vals(vs ...storage.Value) []storage.Value { return vs }

// TestPreparedParamLiteralDifferential runs every corpus statement
// twice through bind-and-run and once with inline literals, at
// parallelism 1, 2 and 8: all three results must be identical, proving
// a bound Param behaves exactly like the literal the substitution path
// would have rendered. The routed corpus must also plan identically:
// its EXPLAIN trees, with $1 rendered as the literal, are equal.
func TestPreparedParamLiteralDifferential(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 64
	defer func() { exec.MinMorselRows = oldMorsels }()
	ctx := context.Background()
	for _, workers := range []int{1, 2, 8} {
		db := prepDB(t)
		mustExec(t, db, "CREATE TABLE hops (src INTEGER NOT NULL, dst INTEGER) PARTITION BY HASH(src) SHARDS 4")
		hops, err := db.Catalog().Get("hops")
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 4000; i++ {
			if err := hops.AppendRow(storage.Int64(i%20), storage.Int64(i%5)); err != nil {
				t.Fatal(err)
			}
		}
		sess := db.NewSession()
		if _, _, err := sess.RunStream(ctx, fmt.Sprintf("SET parallelism = %d", workers)); err != nil {
			t.Fatal(err)
		}
		for _, tc := range append(preparedCorpus, routedCorpus...) {
			want := func() []string {
				rows, _, err := sess.RunStream(ctx, tc.lit)
				if err != nil {
					t.Fatalf("w=%d literal %q: %v", workers, tc.lit, err)
				}
				return rowLines(t, rows)
			}()
			for run := 0; run < 2; run++ {
				rows, _, err := sess.RunStreamBound(ctx, tc.bound, tc.args)
				if err != nil {
					t.Fatalf("w=%d run=%d bound %q: %v", workers, run, tc.bound, err)
				}
				got := rowLines(t, rows)
				if !strings.Contains(tc.bound, "ORDER BY") {
					sort.Strings(got)
					w := append([]string(nil), want...)
					sort.Strings(w)
					want = w
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("w=%d run=%d %q:\n got %q\nwant %q", workers, run, tc.bound, got, want)
				}
			}
		}
		for _, tc := range routedCorpus {
			explain := func(text string, args []storage.Value) string {
				t.Helper()
				st, err := sql.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				op, err := db.planner.PlanSelectParams(st.(*sql.SelectStmt), workers, nil, plan.NewParams(args))
				if err != nil {
					t.Fatalf("w=%d %q: %v", workers, text, err)
				}
				return strings.Join(exec.Explain(op, false), "\n")
			}
			lit := explain(tc.lit, nil)
			got := strings.ReplaceAll(explain(tc.bound, tc.args), "$1", tc.args[0].String())
			if got != lit {
				t.Errorf("w=%d %q plans unlike its literal:\n got %s\nwant %s", workers, tc.bound, got, lit)
			}
			if !strings.Contains(lit, "[shard ") {
				t.Errorf("w=%d %q: the scan is not routed:\n%s", workers, tc.lit, lit)
			}
		}
	}
}

// TestPreparedParamLiteralJoinRoute runs one bound one-hop statement,
// whose edge scan sits under a join, with two keys owned by different
// shards: each execution must match its literal form, so the route
// follows each execution's key below the join too.
func TestPreparedParamLiteralJoinRoute(t *testing.T) {
	db := prepDB(t)
	sess := db.NewSession()
	ctx := context.Background()
	const stmt = "SELECT p.name FROM edges e JOIN people p ON p.id = e.dst WHERE e.src = $1"
	shard := func(k int64) uint64 { return storage.HashValue(storage.Int64(k)) % 4 }
	keys := []int64{1}
	for k := int64(2); len(keys) < 2; k++ {
		if shard(k) != shard(keys[0]) {
			keys = append(keys, k)
		}
	}
	for _, k := range append(keys, keys...) {
		rows, _, err := sess.RunStreamBound(ctx, stmt, vals(storage.Int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		got := rowLines(t, rows)
		rows, _, err = sess.RunStream(ctx, strings.Replace(stmt, "$1", fmt.Sprint(k), 1))
		if err != nil {
			t.Fatal(err)
		}
		want := rowLines(t, rows)
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("src = %d: bound %q, literal %q", k, got, want)
		}
	}
}

// TestPreparedCacheHits: after the first execution of a statement,
// repeated executions do zero parse work — only parse-cache hits — while
// each execution still returns the rows for ITS key.
func TestPreparedCacheHits(t *testing.T) {
	db := prepDB(t)
	sess := db.NewSession()
	ctx := context.Background()
	const stmt = "SELECT dst FROM edges WHERE src = $1 ORDER BY dst"

	const execs = 6
	for i := 0; i < execs; i++ {
		src := int64(i % 3) // cycle keys: each exec must see its own rows
		rows, _, err := sess.RunStreamBound(ctx, stmt, vals(storage.Int64(src)))
		if err != nil {
			t.Fatal(err)
		}
		lines := rowLines(t, rows)
		if len(lines) != 10 {
			t.Fatalf("exec %d: %d rows, want 10", i, len(lines))
		}
		if lines[0] != storage.Int64(src).String() {
			t.Errorf("exec %d: first dst = %s, want %d", i, lines[0], src)
		}
	}

	st := db.PreparedStats()
	if st.Parses != 1 {
		t.Errorf("Parses = %d, want 1 (re-parse on the hot path)", st.Parses)
	}
	if st.Hits != execs-1 || st.Misses != 1 {
		t.Errorf("Hits/Misses = %d/%d, want %d/1", st.Hits, st.Misses, execs-1)
	}
}

// TestPreparedCacheDDLInvalidation drops and recreates a table between
// executions: the cached parse survives, and the next execution plans
// against the new table.
func TestPreparedCacheDDLInvalidation(t *testing.T) {
	db := New()
	mustExec(t, db,
		"CREATE TABLE t (id INTEGER NOT NULL, v INTEGER)",
		"INSERT INTO t VALUES (1, 10), (2, 20)",
	)
	sess := db.NewSession()
	ctx := context.Background()
	const stmt = "SELECT v FROM t WHERE id = $1"

	read := func(id int64) []string {
		t.Helper()
		rows, _, err := sess.RunStreamBound(ctx, stmt, vals(storage.Int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		return rowLines(t, rows)
	}

	if got := read(1); len(got) != 1 || got[0] != "10" {
		t.Fatalf("before DDL: %q", got)
	}
	if got := read(2); len(got) != 1 || got[0] != "20" {
		t.Fatalf("second exec: %q", got)
	}

	mustExec(t, db,
		"DROP TABLE t",
		"CREATE TABLE t (id INTEGER NOT NULL, v INTEGER)",
		"INSERT INTO t VALUES (1, 111)",
	)
	if got := read(1); len(got) != 1 || got[0] != "111" {
		t.Fatalf("after DDL, served stale table: %q", got)
	}

	st := db.PreparedStats()
	if st.Parses != 1 {
		t.Errorf("Parses = %d, want 1 (DDL keeps the parse)", st.Parses)
	}

	// Dropping the table without recreating it must surface an error,
	// not a stale result.
	mustExec(t, db, "DROP TABLE t")
	if _, _, err := sess.RunStreamBound(ctx, stmt, vals(storage.Int64(1))); err == nil {
		t.Error("bound execution of a dropped table succeeded")
	}
}

// TestPreparedConcurrentExec hammers one bound statement from many
// goroutines (with a parameterized fast-path writer running alongside)
// under the race detector: concurrent first executions share one
// single-flight parse, and every execution plans fresh from the shared
// AST and returns its own key's rows.
func TestPreparedConcurrentExec(t *testing.T) {
	db := prepDB(t)
	ctx := context.Background()
	const stmt = "SELECT dst FROM edges WHERE src = $1 ORDER BY dst"
	const goroutines = 8
	const iters = 40

	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < iters; i++ {
				src := int64((g + i) % 20)
				rows, _, err := sess.RunStreamBound(ctx, stmt, vals(storage.Int64(src)))
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				var n int
				for {
					b, err := rows.Next()
					if err != nil {
						errs <- fmt.Errorf("g%d i%d next: %w", g, i, err)
						return
					}
					if b == nil {
						break
					}
					for r := 0; r < b.Len(); r++ {
						if b.Cols[0].Value(r).I%20 != src {
							errs <- fmt.Errorf("g%d i%d: dst %d not from src %d", g, i, b.Cols[0].Value(r).I, src)
							return
						}
						n++
					}
				}
				if n != 10 {
					errs <- fmt.Errorf("g%d i%d: %d rows, want 10", g, i, n)
					return
				}
			}
		}(g)
	}
	// A concurrent parameterized fast-path writer on a disjoint table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := db.NewSession()
		for i := 0; i < iters; i++ {
			if _, _, err := sess.RunStreamBound(ctx,
				"UPDATE people SET age = $1 WHERE id = $2",
				vals(storage.Int64(int64(30+i)), storage.Int64(1))); err != nil {
				errs <- fmt.Errorf("writer i%d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := db.PreparedStats()
	if total := st.Hits + st.Misses; total != (goroutines+1)*iters {
		t.Errorf("hit+miss = %d, want %d (one parse-cache lookup per execution)", total, (goroutines+1)*iters)
	}
	if st.Parses != 2 { // one SELECT text, one UPDATE text
		t.Errorf("Parses = %d, want 2", st.Parses)
	}
}

// TestPreparedDML runs parameterized INSERT / UPDATE / DELETE through
// bind-and-run on a persistent database, then reopens it: the WAL
// records the substituted rendering, so replay reproduces the exact
// state the bound executions produced.
func TestPreparedDML(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE p (id INTEGER NOT NULL, name VARCHAR, score DOUBLE) PARTITION BY HASH(id) SHARDS 4")
	sess := db.NewSession()
	ctx := context.Background()

	exec := func(stmt string, args ...storage.Value) Result {
		t.Helper()
		_, res, err := sess.RunStreamBound(ctx, stmt, args)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		return res
	}
	for i := int64(1); i <= 8; i++ {
		exec("INSERT INTO p VALUES ($1, $2, $3)",
			storage.Int64(i), storage.Str(fmt.Sprintf("n%d's", i)), storage.Float64(float64(i)/2))
	}
	if res := exec("UPDATE p SET score = $1 WHERE id = $2", storage.Float64(99.5), storage.Int64(3)); res.RowsAffected != 1 {
		t.Fatalf("UPDATE affected %d rows", res.RowsAffected)
	}
	if res := exec("DELETE FROM p WHERE id = $1", storage.Int64(7)); res.RowsAffected != 1 {
		t.Fatalf("DELETE affected %d rows", res.RowsAffected)
	}
	// INSERT ... SELECT with a parameter in the source query.
	exec("INSERT INTO p SELECT id + $1, name, score FROM p WHERE id = $2",
		storage.Int64(100), storage.Int64(3))

	check := func(db *DB, label string) {
		t.Helper()
		rows, err := db.Query("SELECT id, name, score FROM p ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 8 {
			t.Fatalf("%s: %d rows, want 8", label, rows.Len())
		}
		if v := rows.Value(2, 2); v.F != 99.5 {
			t.Errorf("%s: updated score = %v", label, v)
		}
		last := rows.Value(7, 0)
		if last.I != 103 {
			t.Errorf("%s: INSERT..SELECT row id = %v, want 103", label, last)
		}
		if n := rows.Value(0, 1); n.S != "n1's" {
			t.Errorf("%s: name round trip = %q", label, n.S)
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "replayed")
}

// TestPreparedArgValidation: too few arguments fail cleanly; extra
// arguments are ignored (matching the substitution path's contract).
func TestPreparedArgValidation(t *testing.T) {
	db := prepDB(t)
	sess := db.NewSession()
	ctx := context.Background()
	if _, _, err := sess.RunStreamBound(ctx, "SELECT id FROM people WHERE id = $2", vals(storage.Int64(1))); err == nil {
		t.Error("missing argument accepted")
	}
	rows, _, err := sess.RunStreamBound(ctx, "SELECT id FROM people WHERE id = $1",
		vals(storage.Int64(1), storage.Int64(99)))
	if err != nil {
		t.Fatalf("extra argument rejected: %v", err)
	}
	if got := rowLines(t, rows); len(got) != 1 || got[0] != "1" {
		t.Errorf("got %q", got)
	}
}

// TestFastPathShardPruning checks the pruning decision and its
// semantics: a WHERE pinning the partition key (literal or bound
// parameter) resolves to the key's shard, ineligible shapes decline,
// and the pruned execution mutates exactly the matching rows.
func TestFastPathShardPruning(t *testing.T) {
	db := New()
	mustExec(t, db,
		"CREATE TABLE t (id INTEGER NOT NULL, v INTEGER) PARTITION BY HASH(id) SHARDS 4",
	)
	k1, k2 := pickDisjointKeys(t, 4)
	mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 1), (%d, 2), (%d, 3)", k1, k1, k2))
	tbl, err := db.cat.Get("t")
	if err != nil {
		t.Fatal(err)
	}

	whereOf := func(text string) sql.Expr {
		t.Helper()
		st, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		switch s := st.(type) {
		case *sql.UpdateStmt:
			return s.Where
		case *sql.DeleteStmt:
			return s.Where
		}
		t.Fatalf("not DML: %q", text)
		return nil
	}

	sc := plan.NewScope(tbl.Name(), tbl.Schema())
	wantShard := int(storage.HashValue(storage.Int64(k1)) % 4)
	if sh, ok := plan.PinnedShard(tbl, sc, whereOf(fmt.Sprintf("DELETE FROM t WHERE id = %d AND v > 0", k1)), nil); !ok || sh != wantShard {
		t.Errorf("literal pin = %d/%v, want %d/true", sh, ok, wantShard)
	}
	ps := plan.NewParams(vals(storage.Int64(k1)))
	if sh, ok := plan.PinnedShard(tbl, sc, whereOf("DELETE FROM t WHERE id = $1"), ps); !ok || sh != wantShard {
		t.Errorf("param pin = %d/%v, want %d/true", sh, ok, wantShard)
	}
	// A NULL key matches nothing, so it pins one shard, as it does for
	// reads, and the pinned DELETE removes nothing.
	nullArg := vals(storage.Value{Null: true})
	if _, ok := plan.PinnedShard(tbl, sc, whereOf("DELETE FROM t WHERE id = $1"), plan.NewParams(nullArg)); !ok {
		t.Error("bound NULL key did not pin a shard")
	}
	if _, res, err := db.NewSession().RunStreamBound(context.Background(), "DELETE FROM t WHERE id = $1", nullArg); err != nil || res.RowsAffected != 0 {
		t.Errorf("DELETE with a NULL key: affected %d rows, err %v; want 0, nil", res.RowsAffected, err)
	}
	for _, text := range []string{
		"DELETE FROM t WHERE id > 1",           // not an equality
		"DELETE FROM t WHERE v = 1",            // not the key column
		"DELETE FROM t WHERE id = 'x'",         // cross-type key
		"DELETE FROM t WHERE id = 1 OR id = 2", // disjunction
		"DELETE FROM t WHERE other.id = 1",     // wrong qualifier
	} {
		if _, ok := plan.PinnedShard(tbl, sc, whereOf(text), nil); ok {
			t.Errorf("%q wrongly pinned a shard", text)
		}
	}

	// Pruned UPDATE touches only its key's rows.
	res, err := db.Exec(fmt.Sprintf("UPDATE t SET v = v + 10 WHERE id = %d", k1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Errorf("pruned UPDATE affected %d rows, want 2", res.RowsAffected)
	}
	v, err := db.QueryScalar(fmt.Sprintf("SELECT v FROM t WHERE id = %d", k2))
	if err != nil || v.I != 3 {
		t.Errorf("other shard's row changed: %v %v", v, err)
	}
	// SET on the key column locks every shard and moves the rows.
	if _, err := db.Exec(fmt.Sprintf("UPDATE t SET id = %d WHERE id = %d", k2, k2)); err != nil {
		t.Fatal(err)
	}
	// Pruned DELETE removes only its key's rows.
	res, err = db.Exec(fmt.Sprintf("DELETE FROM t WHERE id = %d", k1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Errorf("pruned DELETE affected %d rows, want 2", res.RowsAffected)
	}
	if n, err := db.QueryScalar("SELECT COUNT(*) FROM t"); err != nil || n.I != 1 {
		t.Errorf("table left with %v rows, want 1 (err %v)", n, err)
	}
}

// TestShardPrunedParallelUpdates drives two sessions updating disjoint
// keys of one table concurrently. With pruning, each statement locks
// only its key's shard; under the race detector this proves the
// shard-local match+mutate path shares nothing across shards, and the
// final values prove no update was lost.
func TestShardPrunedParallelUpdates(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INTEGER NOT NULL, v INTEGER) PARTITION BY HASH(id) SHARDS 4")
	k1, k2 := pickDisjointKeys(t, 4)
	mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 0), (%d, 0)", k1, k2))

	const iters = 60
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, key := range []int64{k1, k2} {
		wg.Add(1)
		go func(i int, key int64) {
			defer wg.Done()
			sess := db.NewSession()
			for n := 0; n < iters; n++ {
				// Alternate literal and bound executions so both pruned
				// entry points run concurrently.
				var err error
				if n%2 == 0 {
					_, _, err = sess.RunStream(ctx, fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", key))
				} else {
					_, _, err = sess.RunStreamBound(ctx, "UPDATE t SET v = v + 1 WHERE id = $1", vals(storage.Int64(key)))
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, key)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []int64{k1, k2} {
		v, err := db.QueryScalar(fmt.Sprintf("SELECT v FROM t WHERE id = %d", key))
		if err != nil {
			t.Fatal(err)
		}
		if v.I != iters {
			t.Errorf("key %d: v = %d, want %d (lost updates)", key, v.I, iters)
		}
	}
}
