package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is any parsed SQL statement. String renders it back to SQL
// (round-trippable through the parser).
type Statement interface {
	String() string
	stmt()
}

// Expr is an unbound (pre-planning) expression AST node.
type Expr interface {
	String() string
	expr()
}

// --- expressions ---

// Ident is a possibly qualified column reference (t.c or c).
type Ident struct {
	Qualifier string // "" if unqualified
	Name      string
}

func (*Ident) expr() {}

// String implements Expr.
func (e *Ident) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

func (*IntLit) expr() {}

// String implements Expr.
func (e *IntLit) String() string { return strconv.FormatInt(e.V, 10) }

// FloatLit is a floating-point literal.
type FloatLit struct{ V float64 }

func (*FloatLit) expr() {}

// String implements Expr.
func (e *FloatLit) String() string {
	s := strconv.FormatFloat(e.V, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0" // keep it lexing as a float on round trip
	}
	return s
}

// StringLit is a string literal.
type StringLit struct{ V string }

func (*StringLit) expr() {}

// String implements Expr.
func (e *StringLit) String() string {
	return "'" + strings.ReplaceAll(e.V, "'", "''") + "'"
}

// BoolLit is TRUE or FALSE.
type BoolLit struct{ V bool }

func (*BoolLit) expr() {}

// String implements Expr.
func (e *BoolLit) String() string {
	if e.V {
		return "TRUE"
	}
	return "FALSE"
}

// Param is a positional parameter placeholder ($1, $2, ...). N is
// 1-based; the value arrives at bind time, after parsing and planning.
type Param struct{ N int }

func (*Param) expr() {}

// String implements Expr.
func (e *Param) String() string { return "$" + strconv.Itoa(e.N) }

// NullLit is the NULL literal.
type NullLit struct{}

func (*NullLit) expr() {}

// String implements Expr.
func (*NullLit) String() string { return "NULL" }

// BinExpr is a binary operation; Op is the SQL spelling (+, -, AND, ...).
type BinExpr struct {
	Op   string
	L, R Expr
}

func (*BinExpr) expr() {}

// String implements Expr.
func (e *BinExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// UnExpr is NOT or unary minus.
type UnExpr struct {
	Op string // "NOT" or "-"
	E  Expr
}

func (*UnExpr) expr() {}

// String implements Expr.
func (e *UnExpr) String() string {
	if e.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", e.E)
	}
	return fmt.Sprintf("(-%s)", e.E)
}

// FuncExpr is a function or aggregate call. Star marks COUNT(*).
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*FuncExpr) expr() {}

// String implements Expr.
func (e *FuncExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", e.Name, d, strings.Join(parts, ", "))
}

// CaseExpr is a searched CASE.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}

// String implements Expr.
func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", e.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// String implements Expr.
func (e *IsNullExpr) String() string {
	if e.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", e.E)
	}
	return fmt.Sprintf("(%s IS NULL)", e.E)
}

// InExpr is `x [NOT] IN (list)`.
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

func (*InExpr) expr() {}

// String implements Expr.
func (e *InExpr) String() string {
	parts := make([]string, len(e.List))
	for i, a := range e.List {
		parts[i] = a.String()
	}
	op := "IN"
	if e.Not {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", e.E, op, strings.Join(parts, ", "))
}

// LikeExpr is `x [NOT] LIKE pattern`.
type LikeExpr struct {
	E, Pattern Expr
	Not        bool
}

func (*LikeExpr) expr() {}

// String implements Expr.
func (e *LikeExpr) String() string {
	op := "LIKE"
	if e.Not {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s %s)", e.E, op, e.Pattern)
}

// CastExpr is CAST(x AS TYPE).
type CastExpr struct {
	E        Expr
	TypeName string // normalized: INTEGER, DOUBLE, VARCHAR, BOOLEAN
}

func (*CastExpr) expr() {}

// String implements Expr.
func (e *CastExpr) String() string { return fmt.Sprintf("CAST(%s AS %s)", e.E, e.TypeName) }

// --- SELECT ---

// CTE is one WITH binding.
type CTE struct {
	Name   string
	Select *SelectStmt
}

// OrderItem is one ORDER BY criterion.
type OrderItem struct {
	E    Expr
	Desc bool
}

// SelectItem is one projection item. Star renders `*` (or `t.*` when
// StarTable is set).
type SelectItem struct {
	Star      bool
	StarTable string
	E         Expr
	Alias     string
}

// JoinKind enumerates join types.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// String renders the join keyword.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// TableRef is a FROM-clause item.
type TableRef interface {
	String() string
	tableRef()
}

// BaseTable references a named table, optionally aliased.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

// String implements TableRef.
func (t *BaseTable) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// DerivedTable is a parenthesized subquery with a mandatory alias.
type DerivedTable struct {
	Select *SelectStmt
	Alias  string
}

func (*DerivedTable) tableRef() {}

// String implements TableRef.
func (t *DerivedTable) String() string {
	return "(" + t.Select.String() + ") AS " + t.Alias
}

// JoinTable is an explicit join between two table refs.
type JoinTable struct {
	Left, Right TableRef
	Kind        JoinKind
	On          Expr // nil for CROSS JOIN
}

func (*JoinTable) tableRef() {}

// String implements TableRef.
func (t *JoinTable) String() string {
	s := t.Left.String() + " " + t.Kind.String() + " " + t.Right.String()
	if t.On != nil {
		s += " ON " + t.On.String()
	}
	return s
}

// SelectCore is one SELECT ... FROM ... block (no ORDER BY/LIMIT, which
// attach to the whole statement).
type SelectCore struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma-separated list; empty means SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
}

// String renders the core as SQL.
func (c *SelectCore) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if c.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range c.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.StarTable != "":
			b.WriteString(it.StarTable + ".*")
		case it.Star:
			b.WriteString("*")
		default:
			b.WriteString(it.E.String())
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
	}
	if len(c.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range c.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.String())
		}
	}
	if c.Where != nil {
		b.WriteString(" WHERE " + c.Where.String())
	}
	if len(c.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range c.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if c.Having != nil {
		b.WriteString(" HAVING " + c.Having.String())
	}
	return b.String()
}

// SelectStmt is a full select: optional CTEs, one or more cores joined
// by UNION ALL, and statement-level ORDER BY/LIMIT/OFFSET.
type SelectStmt struct {
	With    []CTE
	Cores   []*SelectCore
	OrderBy []OrderItem
	Limit   *int64
	Offset  *int64
}

func (*SelectStmt) stmt() {}

// String implements Statement.
func (s *SelectStmt) String() string {
	var b strings.Builder
	if len(s.With) > 0 {
		b.WriteString("WITH ")
		for i, c := range s.With {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name + " AS (" + c.Select.String() + ")")
		}
		b.WriteString(" ")
	}
	for i, c := range s.Cores {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		b.WriteString(c.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.E.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&b, " LIMIT %d", *s.Limit)
	}
	if s.Offset != nil {
		fmt.Fprintf(&b, " OFFSET %d", *s.Offset)
	}
	return b.String()
}

// --- DML / DDL ---

// InsertStmt inserts literal rows or the result of a select.
type InsertStmt struct {
	Table   string
	Columns []string // empty = schema order
	Rows    [][]Expr // VALUES form
	Select  *SelectStmt
}

func (*InsertStmt) stmt() {}

// String implements Statement.
func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	if s.Select != nil {
		b.WriteString(" " + s.Select.String())
		return b.String()
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		parts := make([]string, len(row))
		for j, e := range row {
			parts[j] = e.String()
		}
		b.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	return b.String()
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	E      Expr
}

// UpdateStmt updates rows matching Where.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*UpdateStmt) stmt() {}

// String implements Statement.
func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column + " = " + a.E.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	return b.String()
}

// DeleteStmt deletes rows matching Where (all rows if nil).
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// String implements Statement.
func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// ColumnSpec is one column of a CREATE TABLE.
type ColumnSpec struct {
	Name     string
	TypeName string
	NotNull  bool
}

// CreateTableStmt creates a table. PartitionBy names the hash-partition
// column when the statement carries a PARTITION BY HASH(col) clause;
// Shards is the requested shard count (0 = engine default).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Cols        []ColumnSpec
	PartitionBy string
	Shards      int
}

func (*CreateTableStmt) stmt() {}

// String implements Statement.
func (s *CreateTableStmt) String() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	b.WriteString(s.Name + " (")
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name + " " + c.TypeName)
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteString(")")
	if s.PartitionBy != "" {
		b.WriteString(" PARTITION BY HASH(" + s.PartitionBy + ")")
		if s.Shards > 0 {
			b.WriteString(" SHARDS " + strconv.Itoa(s.Shards))
		}
	}
	return b.String()
}

// DropTableStmt drops a table.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

func (*DropTableStmt) stmt() {}

// String implements Statement.
func (s *DropTableStmt) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + s.Name
	}
	return "DROP TABLE " + s.Name
}

// TruncateStmt removes all rows from a table.
type TruncateStmt struct {
	Name string
}

func (*TruncateStmt) stmt() {}

// String implements Statement.
func (s *TruncateStmt) String() string { return "TRUNCATE " + s.Name }

// --- session control ---

// BeginStmt opens a transaction.
type BeginStmt struct{}

func (*BeginStmt) stmt() {}

// String implements Statement.
func (*BeginStmt) String() string { return "BEGIN" }

// CommitStmt commits the open transaction.
type CommitStmt struct{}

func (*CommitStmt) stmt() {}

// String implements Statement.
func (*CommitStmt) String() string { return "COMMIT" }

// RollbackStmt rolls back the open transaction.
type RollbackStmt struct{}

func (*RollbackStmt) stmt() {}

// String implements Statement.
func (*RollbackStmt) String() string { return "ROLLBACK" }

// SetStmt assigns a session variable (SET statement_timeout = 500).
// The value is an expression so numeric and string settings parse
// uniformly; sessions evaluate it against an empty scope.
type SetStmt struct {
	Name  string
	Value Expr
}

func (*SetStmt) stmt() {}

// String implements Statement.
func (s *SetStmt) String() string { return "SET " + s.Name + " = " + s.Value.String() }

// ShowStmt reads a session variable (SHOW statement_timeout).
type ShowStmt struct {
	Name string
}

func (*ShowStmt) stmt() {}

// String implements Statement.
func (s *ShowStmt) String() string { return "SHOW " + s.Name }

// GraphStmt is a graph statement (PAGERANK g 10, SSSP g 0 1,
// COMPONENTS_SQL g, LOAD twitter 0.01, GRAPHS): the lower-cased verb
// plus its space-separated arguments. It parses at top level and as
// the inner statement of EXPLAIN; the wire protocol's Graph frames and
// the console's backslash commands build the same statement.
type GraphStmt struct {
	Verb string
	Args []string
}

func (*GraphStmt) stmt() {}

// String implements Statement. The rendering parses back to the same
// statement: an argument that would not lex as one identifier or
// number token is written as a string literal.
func (s *GraphStmt) String() string {
	out := strings.ToUpper(s.Verb)
	for _, a := range s.Args {
		if toks, err := Tokenize(a); err != nil || len(toks) != 2 ||
			(toks[0].Kind != TokIdent && toks[0].Kind != TokNumber) || toks[0].Text != a {
			a = "'" + strings.ReplaceAll(a, "'", "''") + "'"
		}
		out += " " + a
	}
	return out
}

// ExplainStmt renders a statement's plan (EXPLAIN <stmt>) or executes
// the statement and annotates the plan with per-operator counters
// (EXPLAIN ANALYZE <stmt>).
type ExplainStmt struct {
	Analyze bool
	Stmt    Statement
}

func (*ExplainStmt) stmt() {}

// String implements Statement.
func (s *ExplainStmt) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.String()
	}
	return "EXPLAIN " + s.Stmt.String()
}
