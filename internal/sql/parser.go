package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.matchSymbol(";")
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return st, nil
}

// ParseExpr parses a standalone expression (used by the pipeline layer
// for filter predicates).
func ParseExpr(src string) (Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	t := p.peek()
	return fmt.Errorf("sql: line %d col %d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) matchKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.matchKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) matchSymbol(s string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == s {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(s string) error {
	if !p.matchSymbol(s) {
		return p.errf("expected %q, found %s", s, p.peek())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %s", t)
	}
	p.next()
	return t.Text, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		return p.parseGraphStmt()
	}
	if t.Kind != TokKeyword {
		return nil, p.errf("expected a statement, found %s", t)
	}
	switch t.Text {
	case "SELECT", "WITH":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "TRUNCATE":
		return p.parseTruncate()
	case "BEGIN":
		p.next()
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	case "SET":
		return p.parseSet()
	case "SHOW":
		return p.parseShow()
	case "EXPLAIN":
		return p.parseExplain()
	default:
		return nil, p.errf("unsupported statement %s", t.Text)
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <statement>; the inner
// statement is anything parseStatement accepts, graph statements
// included. Nesting EXPLAIN inside EXPLAIN is rejected (the inner parse
// would accept it, but no engine behavior is defined for it).
func (p *Parser) parseExplain() (Statement, error) {
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := p.matchKeyword("ANALYZE")
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if _, ok := inner.(*ExplainStmt); ok {
		return nil, p.errf("EXPLAIN cannot be nested")
	}
	return &ExplainStmt{Analyze: analyze, Stmt: inner}, nil
}

// parseGraphStmt parses a graph statement: a bare verb identifier
// (PAGERANK, SSSP, COMPONENTS_SQL, LOAD, ...) followed by
// space-separated arguments — identifiers, numbers, or string
// literals. An identifier in statement position cannot start any SQL
// statement (those all begin with a keyword), so it is taken as a verb;
// which verbs exist and what arguments they take is the graph
// runtime's business, not the grammar's.
func (p *Parser) parseGraphStmt() (Statement, error) {
	st := &GraphStmt{Verb: strings.ToLower(p.next().Text)}
	for {
		t := p.peek()
		switch {
		case t.Kind == TokIdent || t.Kind == TokString || t.Kind == TokNumber:
			p.next()
			st.Args = append(st.Args, t.Text)
			continue
		case t.Kind == TokSymbol && t.Text == "-" && p.peekAt(1).Kind == TokNumber:
			p.next()
			st.Args = append(st.Args, "-"+p.next().Text)
			continue
		}
		return st, nil
	}
}

// parseSet parses SET <var> = <expr> and the SQL-flavored form without
// the equals sign (SET temp_tablespace '/dir'); UPDATE's SET clause is
// handled inside parseUpdate.
func (p *Parser) parseSet() (Statement, error) {
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.matchSymbol("=") // optional: SET name value and SET name = value both parse
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &SetStmt{Name: name, Value: e}, nil
}

func (p *Parser) parseShow() (Statement, error) {
	if err := p.expectKeyword("SHOW"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &ShowStmt{Name: name}, nil
}

// --- SELECT ---

func (p *Parser) parseSelect() (*SelectStmt, error) {
	st := &SelectStmt{}
	if p.matchKeyword("WITH") {
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			st.With = append(st.With, CTE{Name: name, Select: sub})
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	core, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	st.Cores = append(st.Cores, core)
	for p.matchKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, fmt.Errorf("%w (only UNION ALL is supported)", err)
		}
		c, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		st.Cores = append(st.Cores, c)
	}
	if p.matchKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{E: e}
			if p.matchKeyword("DESC") {
				item.Desc = true
			} else {
				p.matchKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	if p.matchKeyword("LIMIT") {
		n, err := p.parseIntToken()
		if err != nil {
			return nil, err
		}
		st.Limit = &n
	}
	if p.matchKeyword("OFFSET") {
		n, err := p.parseIntToken()
		if err != nil {
			return nil, err
		}
		st.Offset = &n
	}
	return st, nil
}

func (p *Parser) parseIntToken() (int64, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, p.errf("expected integer, found %s", t)
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errf("expected integer, found %s", t)
	}
	p.next()
	return n, nil
}

func (p *Parser) parseSelectCore() (*SelectCore, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	core := &SelectCore{}
	if p.matchKeyword("DISTINCT") {
		core.Distinct = true
	} else {
		p.matchKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		core.Items = append(core.Items, item)
		if !p.matchSymbol(",") {
			break
		}
	}
	if p.matchKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			core.From = append(core.From, ref)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	if p.matchKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Where = e
	}
	if p.matchKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			core.GroupBy = append(core.GroupBy, e)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	if p.matchKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		core.Having = e
	}
	return core, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// `*`
	if p.peek().Kind == TokSymbol && p.peek().Text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// `t.*`
	if p.peek().Kind == TokIdent && p.peekAt(1).Kind == TokSymbol && p.peekAt(1).Text == "." &&
		p.peekAt(2).Kind == TokSymbol && p.peekAt(2).Text == "*" {
		tbl := p.next().Text
		p.next()
		p.next()
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{E: e}
	if p.matchKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.matchKeyword("CROSS"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinCross
		case p.matchKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinInner
		case p.matchKeyword("LEFT"):
			p.matchKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeft
		case p.matchKeyword("JOIN"):
			kind = JoinInner
		default:
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		j := &JoinTable{Left: left, Right: right, Kind: kind}
		if kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *Parser) parsePrimaryTableRef() (TableRef, error) {
	if p.matchSymbol("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		alias, err := p.parseAlias(true)
		if err != nil {
			return nil, err
		}
		return &DerivedTable{Select: sub, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	alias, err := p.parseAlias(false)
	if err != nil {
		return nil, err
	}
	return &BaseTable{Name: name, Alias: alias}, nil
}

func (p *Parser) parseAlias(required bool) (string, error) {
	if p.matchKeyword("AS") {
		return p.expectIdent()
	}
	if p.peek().Kind == TokIdent {
		return p.next().Text, nil
	}
	if required {
		return "", p.errf("derived table requires an alias")
	}
	return "", nil
}

// --- DML / DDL ---

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.matchSymbol("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.matchSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if t := p.peek(); t.Kind == TokKeyword && (t.Text == "SELECT" || t.Text == "WITH") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sub
		return st, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.matchSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.matchSymbol(",") {
			break
		}
	}
	return st, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Column: col, E: e})
		if !p.matchSymbol(",") {
			break
		}
	}
	if p.matchKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.matchKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{}
	if p.matchKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tn, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		spec := ColumnSpec{Name: col, TypeName: tn}
		if p.matchKeyword("NOT") {
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			spec.NotNull = true
		}
		st.Cols = append(st.Cols, spec)
		if !p.matchSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.matchKeyword("PARTITION") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("HASH"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.PartitionBy = col
		if p.matchKeyword("SHARDS") {
			n, err := p.parseIntToken()
			if err != nil {
				return nil, err
			}
			if n < 1 || n > 1<<16 {
				return nil, p.errf("SHARDS must be between 1 and 65536, got %d", n)
			}
			st.Shards = int(n)
		}
	}
	return st, nil
}

// parseTypeName consumes a type, normalizing synonyms (BIGINT→INTEGER,
// FLOAT/DOUBLE PRECISION→DOUBLE, TEXT/VARCHAR(n)→VARCHAR).
func (p *Parser) parseTypeName() (string, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return "", p.errf("expected type name, found %s", t)
	}
	p.next()
	switch t.Text {
	case "INTEGER", "BIGINT":
		return "INTEGER", nil
	case "DOUBLE":
		p.matchKeyword("PRECISION")
		return "DOUBLE", nil
	case "FLOAT":
		return "DOUBLE", nil
	case "BOOLEAN":
		return "BOOLEAN", nil
	case "TEXT":
		return "VARCHAR", nil
	case "VARCHAR":
		if p.matchSymbol("(") {
			if _, err := p.parseIntToken(); err != nil {
				return "", err
			}
			if err := p.expectSymbol(")"); err != nil {
				return "", err
			}
		}
		return "VARCHAR", nil
	default:
		return "", p.errf("unsupported type %s", t.Text)
	}
}

func (p *Parser) parseDropTable() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.matchKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *Parser) parseTruncate() (Statement, error) {
	if err := p.expectKeyword("TRUNCATE"); err != nil {
		return nil, err
	}
	p.matchKeyword("TABLE")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &TruncateStmt{Name: name}, nil
}

// --- expressions ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.matchKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.matchKeyword("IS") {
		not := p.matchKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: not}, nil
	}
	// [NOT] IN / LIKE / BETWEEN
	not := false
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "NOT" {
		nt := p.peekAt(1)
		if nt.Kind == TokKeyword && (nt.Text == "IN" || nt.Text == "LIKE" || nt.Text == "BETWEEN") {
			p.next()
			not = true
		}
	}
	switch {
	case p.matchKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.matchSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: not}, nil
	case p.matchKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: l, Pattern: pat, Not: not}, nil
	case p.matchKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		// Desugar to (l >= lo AND l <= hi); BETWEEN does not survive
		// printing, but the desugared form round-trips fine.
		rng := &BinExpr{Op: "AND",
			L: &BinExpr{Op: ">=", L: l, R: lo},
			R: &BinExpr{Op: "<=", L: l, R: hi}}
		if not {
			return &UnExpr{Op: "NOT", E: rng}, nil
		}
		return rng, nil
	}
	if t := p.peek(); t.Kind == TokSymbol {
		op := t.Text
		switch op {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			p.next()
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "+" && t.Text != "-" && t.Text != "||") {
			return l, nil
		}
		p.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Text, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: t.Text, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.matchSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals so -1 prints back as -1, not (-1).
		switch lit := e.(type) {
		case *IntLit:
			return &IntLit{V: -lit.V}, nil
		case *FloatLit:
			return &FloatLit{V: -lit.V}, nil
		}
		return &UnExpr{Op: "-", E: e}, nil
	}
	if p.matchSymbol("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if !strings.ContainsAny(t.Text, ".eE") {
			v, err := strconv.ParseInt(t.Text, 10, 64)
			if err == nil {
				return &IntLit{V: v}, nil
			}
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return &FloatLit{V: f}, nil
	case TokString:
		p.next()
		return &StringLit{V: t.Text}, nil
	case TokParam:
		p.next()
		n, err := strconv.Atoi(t.Text[1:])
		if err != nil || n < 1 {
			return nil, p.errf("bad parameter %q", t.Text)
		}
		return &Param{N: n}, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &BoolLit{V: true}, nil
		case "FALSE":
			p.next()
			return &BoolLit{V: false}, nil
		case "NULL":
			p.next()
			return &NullLit{}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		}
		return nil, p.errf("unexpected keyword %s in expression", t.Text)
	case TokIdent:
		// Function call?
		if p.peekAt(1).Kind == TokSymbol && p.peekAt(1).Text == "(" {
			return p.parseFuncCall()
		}
		p.next()
		if p.matchSymbol(".") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &Ident{Qualifier: t.Text, Name: name}, nil
		}
		return &Ident{Name: t.Text}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}

func (p *Parser) parseFuncCall() (Expr, error) {
	name := p.next().Text
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	f := &FuncExpr{Name: name}
	if p.matchSymbol("*") {
		f.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.matchSymbol(")") {
		return f, nil
	}
	if p.matchKeyword("DISTINCT") {
		f.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !p.matchSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.matchKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.matchKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (Expr, error) {
	if err := p.expectKeyword("CAST"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	tn, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CastExpr{E: e, TypeName: tn}, nil
}
