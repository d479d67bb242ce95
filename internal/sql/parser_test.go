package sql

import (
	"strings"
	"testing"
)

// roundTrip asserts parse(print(parse(src))) == print(parse(src)): the
// printer emits SQL the parser accepts, with a stable fixpoint.
func roundTrip(t *testing.T, src string) Statement {
	t.Helper()
	st1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	printed := st1.String()
	st2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse %q (printed from %q): %v", printed, src, err)
	}
	if st2.String() != printed {
		t.Fatalf("round trip unstable:\n first: %s\nsecond: %s", printed, st2.String())
	}
	return st1
}

func TestParseSimpleSelect(t *testing.T) {
	st := roundTrip(t, "SELECT id, value FROM vertex WHERE id > 10 ORDER BY id DESC LIMIT 5 OFFSET 2")
	sel := st.(*SelectStmt)
	core := sel.Cores[0]
	if len(core.Items) != 2 || core.Items[0].E.(*Ident).Name != "id" {
		t.Errorf("select items wrong: %+v", core.Items)
	}
	if core.Where == nil || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Error("where/order missing")
	}
	if sel.Limit == nil || *sel.Limit != 5 || sel.Offset == nil || *sel.Offset != 2 {
		t.Error("limit/offset wrong")
	}
}

func TestParseJoins(t *testing.T) {
	st := roundTrip(t, "SELECT e.src, v.value FROM edge AS e JOIN vertex AS v ON e.dst = v.id")
	core := st.(*SelectStmt).Cores[0]
	j, ok := core.From[0].(*JoinTable)
	if !ok || j.Kind != JoinInner || j.On == nil {
		t.Fatalf("join not parsed: %+v", core.From[0])
	}
	roundTrip(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.y")
	roundTrip(t, "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y")
	roundTrip(t, "SELECT * FROM a CROSS JOIN b")
	roundTrip(t, "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
}

func TestParseCommaJoinTriangleQuery(t *testing.T) {
	// The triangle-counting self-join shape from the paper's SQL algorithms.
	st := roundTrip(t, `SELECT COUNT(*) FROM edge e1, edge e2, edge e3
		WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src
		AND e1.src < e2.src AND e2.src < e3.src`)
	core := st.(*SelectStmt).Cores[0]
	if len(core.From) != 3 {
		t.Fatalf("expected 3 from items, got %d", len(core.From))
	}
	f, ok := core.Items[0].E.(*FuncExpr)
	if !ok || !f.Star || !strings.EqualFold(f.Name, "count") {
		t.Error("COUNT(*) not parsed")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	st := roundTrip(t, "SELECT src, COUNT(*) AS c FROM edge GROUP BY src HAVING COUNT(*) > 3")
	core := st.(*SelectStmt).Cores[0]
	if len(core.GroupBy) != 1 || core.Having == nil {
		t.Error("group by/having missing")
	}
	if core.Items[1].Alias != "c" {
		t.Error("alias missing")
	}
}

func TestParseUnionAll(t *testing.T) {
	st := roundTrip(t, "SELECT id FROM vertex UNION ALL SELECT src FROM edge UNION ALL SELECT dst FROM edge")
	if len(st.(*SelectStmt).Cores) != 3 {
		t.Error("union all chain not parsed")
	}
	if _, err := Parse("SELECT id FROM a UNION SELECT id FROM b"); err == nil {
		t.Error("plain UNION should be rejected (only UNION ALL)")
	}
}

func TestParseWithCTE(t *testing.T) {
	st := roundTrip(t, "WITH deg AS (SELECT src, COUNT(*) AS d FROM edge GROUP BY src) SELECT * FROM deg WHERE d > 2")
	sel := st.(*SelectStmt)
	if len(sel.With) != 1 || sel.With[0].Name != "deg" {
		t.Error("CTE not parsed")
	}
}

func TestParseDerivedTable(t *testing.T) {
	roundTrip(t, "SELECT t.a FROM (SELECT id AS a FROM vertex) AS t")
	if _, err := Parse("SELECT a FROM (SELECT id AS a FROM vertex)"); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestParseDistinctAndImplicitAlias(t *testing.T) {
	st := roundTrip(t, "SELECT DISTINCT src s FROM edge")
	core := st.(*SelectStmt).Cores[0]
	if !core.Distinct || core.Items[0].Alias != "s" {
		t.Error("distinct/implicit alias not parsed")
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"SELECT 1 + 2 * 3 FROM t",
		"SELECT (1 + 2) * 3 FROM t",
		"SELECT -x FROM t",
		"SELECT a || 'suffix' FROM t",
		"SELECT a % 4 FROM t",
		"SELECT x IS NULL, y IS NOT NULL FROM t",
		"SELECT x IN (1, 2, 3) FROM t",
		"SELECT x NOT IN (1, 2) FROM t",
		"SELECT name LIKE 'fam%' FROM t",
		"SELECT name NOT LIKE '%x_' FROM t",
		"SELECT CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END FROM t",
		"SELECT CAST(x AS DOUBLE) FROM t",
		"SELECT CAST(x AS VARCHAR) FROM t",
		"SELECT COALESCE(a, b, 0) FROM t",
		"SELECT COUNT(DISTINCT src) FROM edge",
		"SELECT TRUE, FALSE, NULL FROM t",
		"SELECT 1.5e3 FROM t",
		"SELECT x = 1 OR y = 2 AND NOT z = 3 FROM t",
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	st, err := Parse("SELECT * FROM t WHERE x BETWEEN 1 AND 5")
	if err != nil {
		t.Fatal(err)
	}
	w := st.(*SelectStmt).Cores[0].Where.(*BinExpr)
	if w.Op != "AND" {
		t.Fatalf("BETWEEN should desugar to AND, got %s", w.Op)
	}
	if w.L.(*BinExpr).Op != ">=" || w.R.(*BinExpr).Op != "<=" {
		t.Error("BETWEEN bounds wrong")
	}
	roundTrip(t, "SELECT * FROM t WHERE x NOT BETWEEN 1 AND 5")
}

func TestParsePrecedence(t *testing.T) {
	st, err := Parse("SELECT a + b * c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	e := st.(*SelectStmt).Cores[0].Items[0].E.(*BinExpr)
	if e.Op != "+" {
		t.Fatalf("expected + at root, got %s", e.Op)
	}
	if e.R.(*BinExpr).Op != "*" {
		t.Error("* should bind tighter than +")
	}
	st2, _ := Parse("SELECT a OR b AND c FROM t")
	e2 := st2.(*SelectStmt).Cores[0].Items[0].E.(*BinExpr)
	if e2.Op != "OR" {
		t.Error("AND should bind tighter than OR")
	}
}

func TestParseInsert(t *testing.T) {
	st := roundTrip(t, "INSERT INTO vertex (id, value) VALUES (1, 'a'), (2, NULL)")
	ins := st.(*InsertStmt)
	if ins.Table != "vertex" || len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("insert parsed wrong: %+v", ins)
	}
	st2 := roundTrip(t, "INSERT INTO backup SELECT * FROM vertex WHERE id < 100")
	if st2.(*InsertStmt).Select == nil {
		t.Error("insert-select not parsed")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st := roundTrip(t, "UPDATE vertex SET value = 'x', halted = TRUE WHERE id = 7")
	up := st.(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Error("update parsed wrong")
	}
	st2 := roundTrip(t, "DELETE FROM message WHERE superstep < 3")
	if st2.(*DeleteStmt).Where == nil {
		t.Error("delete where missing")
	}
	roundTrip(t, "DELETE FROM message")
}

func TestParseDDL(t *testing.T) {
	st := roundTrip(t, "CREATE TABLE vertex (id INTEGER NOT NULL, value VARCHAR, rank DOUBLE, halted BOOLEAN)")
	ct := st.(*CreateTableStmt)
	if len(ct.Cols) != 4 || !ct.Cols[0].NotNull || ct.Cols[2].TypeName != "DOUBLE" {
		t.Errorf("create table parsed wrong: %+v", ct)
	}
	roundTrip(t, "CREATE TABLE IF NOT EXISTS t (x INTEGER)")
	roundTrip(t, "DROP TABLE vertex")
	roundTrip(t, "DROP TABLE IF EXISTS vertex")
	roundTrip(t, "TRUNCATE message")
	// Type synonyms normalize.
	st2, err := Parse("CREATE TABLE t (a BIGINT, b FLOAT, c DOUBLE PRECISION, d TEXT, e VARCHAR(42))")
	if err != nil {
		t.Fatal(err)
	}
	ct2 := st2.(*CreateTableStmt)
	want := []string{"INTEGER", "DOUBLE", "DOUBLE", "VARCHAR", "VARCHAR"}
	for i, w := range want {
		if ct2.Cols[i].TypeName != w {
			t.Errorf("col %d type = %s, want %s", i, ct2.Cols[i].TypeName, w)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t VALUES",
		"CREATE TABLE t ()",
		"CREATE TABLE t (x WIBBLE)",
		"SELECT * FROM t GROUP",
		"SELECT 'unterminated FROM t",
		"SELECT * FROM t; SELECT 1",
		"SELECT CASE END FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	roundTrip(t, "SELECT id -- line comment\nFROM vertex /* block\ncomment */ WHERE id > 0")
}

func TestParseStringEscapes(t *testing.T) {
	st, err := Parse("SELECT 'it''s' FROM t")
	if err != nil {
		t.Fatal(err)
	}
	lit := st.(*SelectStmt).Cores[0].Items[0].E.(*StringLit)
	if lit.V != "it's" {
		t.Errorf("escaped string = %q", lit.V)
	}
	roundTrip(t, "SELECT 'it''s' FROM t")
}

func TestParseQuotedIdent(t *testing.T) {
	st, err := Parse(`SELECT "select" FROM "table"`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*SelectStmt).Cores[0].Items[0].E.(*Ident).Name != "select" {
		t.Error("quoted identifier not parsed")
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("weight > 0.5 AND etype = 'family'")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*BinExpr).Op != "AND" {
		t.Error("standalone expression parsed wrong")
	}
	if _, err := ParseExpr("a +"); err == nil {
		t.Error("trailing operator should fail")
	}
	if _, err := ParseExpr("a b c"); err == nil {
		t.Error("junk after expression should fail")
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := Tokenize("SELECT\n  id")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("positions wrong: %+v", toks[:2])
	}
}

func TestSemicolonTolerated(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Errorf("trailing semicolon should parse: %v", err)
	}
}

func TestParseSessionControl(t *testing.T) {
	if _, ok := roundTrip(t, "BEGIN").(*BeginStmt); !ok {
		t.Error("BEGIN not parsed")
	}
	if _, ok := roundTrip(t, "commit;").(*CommitStmt); !ok {
		t.Error("COMMIT not parsed")
	}
	if _, ok := roundTrip(t, "ROLLBACK").(*RollbackStmt); !ok {
		t.Error("ROLLBACK not parsed")
	}
	set := roundTrip(t, "SET statement_timeout = 250").(*SetStmt)
	if set.Name != "statement_timeout" {
		t.Errorf("SET name = %q", set.Name)
	}
	if lit, ok := set.Value.(*IntLit); !ok || lit.V != 250 {
		t.Errorf("SET value = %#v", set.Value)
	}
	show := roundTrip(t, "SHOW parallelism").(*ShowStmt)
	if show.Name != "parallelism" {
		t.Errorf("SHOW name = %q", show.Name)
	}
	if _, err := Parse("SET = 3"); err == nil {
		t.Error("SET without a variable name should fail")
	}
}

// TestParseGraphStmt: a graph statement parses at top level and under
// EXPLAIN through the same rule, and its rendering — which the wire's
// Graph frames are turned into — parses back to the same argument list
// whatever the arguments contain.
func TestParseGraphStmt(t *testing.T) {
	g := roundTrip(t, "PageRank_SQL g 10").(*GraphStmt)
	if g.Verb != "pagerank_sql" || len(g.Args) != 2 || g.Args[0] != "g" || g.Args[1] != "10" {
		t.Errorf("parsed %+v", g)
	}
	ex := roundTrip(t, "EXPLAIN ANALYZE sssp g -3 'x y'").(*ExplainStmt)
	inner, ok := ex.Stmt.(*GraphStmt)
	if !ok || !ex.Analyze || inner.Verb != "sssp" || len(inner.Args) != 3 || inner.Args[1] != "-3" || inner.Args[2] != "x y" {
		t.Errorf("parsed %+v / %+v", ex, ex.Stmt)
	}
	if _, ok := roundTrip(t, "GRAPHS;").(*GraphStmt); !ok {
		t.Error("GRAPHS not parsed as a graph statement")
	}

	args := []string{"", "it's", "select", "1e", "a b", "0.01", "-7", "twitter_s", `"q"`}
	back, err := Parse((&GraphStmt{Verb: "load", Args: args}).String())
	if err != nil {
		t.Fatal(err)
	}
	got := back.(*GraphStmt).Args
	if len(got) != len(args) {
		t.Fatalf("args %q came back as %q", args, got)
	}
	for i := range args {
		if got[i] != args[i] {
			t.Errorf("arg %d: %q came back as %q", i, args[i], got[i])
		}
	}
	for _, bad := range []string{"PAGERANK g, 10", "PAGERANK g FROM t", "EXPLAIN EXPLAIN PAGERANK g"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
