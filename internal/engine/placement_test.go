package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
)

// Conjunct placement: the planner puts every conjunct of a FROM clause,
// whether written in ON or in WHERE, at the lowest point where it binds.
// Placement may change the plan but never the rows: each statement below
// is spelled with its conjuncts in ON, in WHERE and as a comma join, and
// a reference spelling keeps them where the join's semantics say — above
// the join, as a filter over a derived table, or (for a LEFT join's ON)
// in a conjunct that binds only at the join.

// placementDB holds an undirected graph: pe stores every edge in both
// directions (4000 rows, so a join building on it spills under a 64 KiB
// grant), hash-partitioned on src, and pn the nodes, partitioned on id.
// Nodes 350..399 have edges but no pn row, so LEFT joins pad; nodes
// 1000..1004 have a pn row no edge reaches, and only they carry labels
// that do not cast to INTEGER.
func placementDB(t *testing.T, shards int) *DB {
	t.Helper()
	db := New()
	mustExec(t, db,
		fmt.Sprintf("CREATE TABLE pe (src INTEGER NOT NULL, dst INTEGER NOT NULL, w DOUBLE) PARTITION BY HASH(src) SHARDS %d", shards),
		fmt.Sprintf("CREATE TABLE pn (id INTEGER NOT NULL, label VARCHAR, grp INTEGER) PARTITION BY HASH(id) SHARDS %d", shards),
	)
	rng := rand.New(rand.NewSource(31))
	seen := make(map[[2]int]bool)
	var edges []string
	for len(edges) < 2*2000 {
		a, b := rng.Intn(400), rng.Intn(400)
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}], seen[[2]int{b, a}] = true, true
		w := float64(rng.Intn(100)) / 100
		edges = append(edges, fmt.Sprintf("(%d, %d, %g)", a, b, w), fmt.Sprintf("(%d, %d, %g)", b, a, w))
	}
	var nodes []string
	for id := 0; id < 350; id++ {
		nodes = append(nodes, fmt.Sprintf("(%d, '%d', %d)", id, 3*id, id%4))
	}
	for id := 1000; id < 1005; id++ {
		nodes = append(nodes, fmt.Sprintf("(%d, 'orphan-%d', %d)", id, id, id%4))
	}
	mustExec(t, db,
		"INSERT INTO pe VALUES "+strings.Join(edges, ", "),
		"INSERT INTO pn VALUES "+strings.Join(nodes, ", "),
	)
	return db
}

// placementCorpus lists each statement's spellings; an empty spelling
// does not exist for that statement (a LEFT join has no comma form, and
// moving its conjuncts between ON and WHERE changes its meaning).
var placementCorpus = []struct {
	name                   string
	on, where, comma, want string
}{
	{name: "one-hop with a literal key",
		on:    "SELECT n.label FROM pe e JOIN pn n ON n.id = e.dst AND e.src = 7",
		where: "SELECT n.label FROM pe e JOIN pn n ON n.id = e.dst WHERE e.src = 7",
		comma: "SELECT n.label FROM pe e, pn n WHERE n.id = e.dst AND e.src = 7",
		want:  "SELECT t.label FROM (SELECT e.src, n.label FROM pe e JOIN pn n ON n.id = e.dst) t WHERE t.src = 7"},
	{name: "per-node triangles",
		on: `SELECT e1.src AS id, COUNT(*) AS tri FROM pe e1
			JOIN pe e2 ON e1.src = e2.src AND e1.dst < e2.dst
			JOIN pe e3 ON e3.src = e1.dst AND e3.dst = e2.dst GROUP BY e1.src ORDER BY id`,
		where: `SELECT e1.src AS id, COUNT(*) AS tri FROM pe e1
			JOIN pe e2 ON e1.src = e2.src JOIN pe e3 ON e3.src = e1.dst
			WHERE e1.dst < e2.dst AND e3.dst = e2.dst GROUP BY e1.src ORDER BY id`,
		comma: `SELECT e1.src AS id, COUNT(*) AS tri FROM pe e1, pe e2, pe e3
			WHERE e1.src = e2.src AND e1.dst < e2.dst AND e3.src = e1.dst AND e3.dst = e2.dst
			GROUP BY e1.src ORDER BY id`,
		want: `SELECT t.a AS id, COUNT(*) AS tri FROM
			(SELECT e1.src AS a, e1.dst AS b, e2.dst AS c FROM pe e1 JOIN pe e2 ON e1.src = e2.src) t
			JOIN pe e3 ON e3.src = t.b AND e3.dst = t.c WHERE t.b < t.c GROUP BY t.a ORDER BY id`},
	{name: "non-equi inner join",
		on:    "SELECT a.id, b.id FROM pn a JOIN pn b ON a.id < b.id AND b.id < a.id + 3 AND a.grp = 1 AND a.id < 60",
		where: "SELECT a.id, b.id FROM pn a JOIN pn b ON a.id < b.id WHERE b.id < a.id + 3 AND a.grp = 1 AND a.id < 60",
		comma: "SELECT a.id, b.id FROM pn a, pn b WHERE a.id < b.id AND b.id < a.id + 3 AND a.grp = 1 AND a.id < 60",
		want: `SELECT t.x, t.y FROM (SELECT a.id AS x, b.id AS y, a.grp AS g FROM pn a CROSS JOIN pn b) t
			WHERE t.x < t.y AND t.y < t.x + 3 AND t.g = 1 AND t.x < 60`},
	{name: "three-way chain with a conjunct that binds only at the top",
		on:    "SELECT a.id, e.dst, c.label FROM pn a JOIN pe e ON e.src = a.id JOIN pn c ON c.id = e.dst AND a.grp + c.grp = 3",
		where: "SELECT a.id, e.dst, c.label FROM pn a JOIN pe e ON e.src = a.id JOIN pn c ON c.id = e.dst WHERE a.grp + c.grp = 3",
		comma: "SELECT a.id, e.dst, c.label FROM pn a, pe e, pn c WHERE e.src = a.id AND c.id = e.dst AND a.grp + c.grp = 3",
		want: `SELECT t.id, t.dst, t.label FROM (SELECT a.id, e.dst, c.label, a.grp AS ag, c.grp AS cg
			FROM pn a JOIN pe e ON e.src = a.id JOIN pn c ON c.id = e.dst) t WHERE t.ag + t.cg = 3`},
	{name: "LEFT JOIN with a preserved-side WHERE",
		where: "SELECT e.src, e.dst, n.label FROM pe e LEFT JOIN pn n ON n.id = e.dst WHERE e.src < 20 AND e.w > 0.5",
		want: `SELECT t.src, t.dst, t.label FROM (SELECT e.src, e.dst, e.w, n.label
			FROM pe e LEFT JOIN pn n ON n.id = e.dst) t WHERE t.src < 20 AND t.w > 0.5`},
	{name: "LEFT JOIN with an R-only ON conjunct",
		// e.src is NOT NULL, so the reference's OR changes nothing but
		// keeps the conjunct from binding on pn alone.
		on:   "SELECT e.src, e.dst, n.label FROM pe e LEFT JOIN pn n ON n.id = e.dst AND n.grp = 1",
		want: "SELECT e.src, e.dst, n.label FROM pe e LEFT JOIN pn n ON n.id = e.dst AND (n.grp = 1 OR e.src IS NULL)"},
	{name: "LEFT JOIN with an L-only ON conjunct",
		// It decides which rows match, not which survive: an edge with
		// w <= 0.5 is padded, not dropped. n.id is NOT NULL, so the
		// reference's OR changes nothing.
		on:   "SELECT e.src, e.dst, n.label FROM pe e LEFT JOIN pn n ON n.id = e.dst AND e.w > 0.5",
		want: "SELECT e.src, e.dst, n.label FROM pe e LEFT JOIN pn n ON n.id = e.dst AND (e.w > 0.5 OR n.id IS NULL)"},
	{name: "WHERE r.x IS NULL over a LEFT JOIN",
		where: "SELECT e.src, e.dst FROM pe e LEFT JOIN pn n ON n.id = e.dst WHERE n.id IS NULL",
		want:  "SELECT t.src, t.dst FROM (SELECT e.src, e.dst, n.id FROM pe e LEFT JOIN pn n ON n.id = e.dst) t WHERE t.id IS NULL"},
	{name: "open wedges: an inner chain under a LEFT JOIN",
		where: `SELECT e1.src, e1.dst, e2.dst FROM pe e1 JOIN pe e2 ON e1.src = e2.src AND e1.dst < e2.dst
			LEFT JOIN pe e3 ON e3.src = e1.dst AND e3.dst = e2.dst WHERE e3.src IS NULL AND e1.src < 10`,
		want: `SELECT t.a, t.b, t.c FROM (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c, e3.src AS x
			FROM pe e1 JOIN pe e2 ON e1.src = e2.src AND e1.dst < e2.dst
			LEFT JOIN pe e3 ON e3.src = e1.dst AND e3.dst = e2.dst) t WHERE t.x IS NULL AND t.a < 10`},
}

// TestJoinPlacementDifferential: every spelling returns the reference's
// rows in the reference's order at workers 1, 2 and 8, with and without
// a 64 KiB grant; SHARDS 1 and SHARDS 8 return the same row set.
func TestJoinPlacementDifferential(t *testing.T) {
	oldMorsels := exec.MinMorselRows
	exec.MinMorselRows = 16
	defer func() { exec.MinMorselRows = oldMorsels }()
	run := func(db *DB, q string, workers int, workMem int64) []string {
		t.Helper()
		return rowLines(t, sessionQuery(t, db, q, workers, workMem))
	}
	sets := make([]string, len(placementCorpus))
	for _, shards := range []int{1, 8} {
		db := placementDB(t, shards)
		for i, tc := range placementCorpus {
			want := run(db, tc.want, 1, 0)
			if len(want) == 0 {
				t.Fatalf("shards %d %s: degenerate fixture, no rows", shards, tc.name)
			}
			for _, q := range []string{tc.on, tc.where, tc.comma} {
				if q == "" {
					continue
				}
				for _, workers := range []int{1, 2, 8} {
					for _, workMem := range []int64{0, forceSpillWorkMem} {
						got := run(db, q, workers, workMem)
						if strings.Join(got, "\n") != strings.Join(want, "\n") {
							t.Errorf("shards %d workers %d work_mem %d %s:\n%s\n got %d rows %q\nwant %d rows %q",
								shards, workers, workMem, tc.name, q, len(got), got, len(want), want)
						}
					}
				}
			}
			sort.Strings(want)
			if set := strings.Join(want, "\n"); sets[i] == "" {
				sets[i] = set
			} else if set != sets[i] {
				t.Errorf("%s: SHARDS 8 returns a different row set than SHARDS 1", tc.name)
			}
		}
	}
}

// TestJoinPlacementEvaluatesBelowJoin records what placement means for a
// conjunct that fails on rows no join match reaches: it is evaluated
// where it is placed, on every row of its input, so the ON, WHERE and
// comma spellings all fail alike. Only a filter over a derived table
// sees just the joined rows.
func TestJoinPlacementEvaluatesBelowJoin(t *testing.T) {
	db := placementDB(t, 4)
	ctx := context.Background()
	for _, q := range []string{
		"SELECT n.label FROM pe e JOIN pn n ON n.id = e.dst AND CAST(n.label AS INTEGER) > 0",
		"SELECT n.label FROM pe e JOIN pn n ON n.id = e.dst WHERE CAST(n.label AS INTEGER) > 0",
		"SELECT n.label FROM pe e, pn n WHERE n.id = e.dst AND CAST(n.label AS INTEGER) > 0",
	} {
		if _, err := db.QueryContext(ctx, q); err == nil || !strings.Contains(err.Error(), `cannot cast "orphan-`) {
			t.Errorf("%s: err = %v, want the cast error from an unjoined pn row", q, err)
		}
	}
	const above = "SELECT t.label FROM (SELECT n.label FROM pe e JOIN pn n ON n.id = e.dst) t WHERE CAST(t.label AS INTEGER) > 0"
	if rows, err := db.QueryContext(ctx, above); err != nil || rows.Len() == 0 {
		t.Fatalf("%s: err = %v; want rows", above, err)
	}
}
