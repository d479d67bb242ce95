package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Positional parameters. The parser emits Param nodes for $1..$n; this
// file holds the helpers shared by the bind-and-run path (NumParams,
// used to validate argument counts before planning) and the legacy
// textual-substitution path (SubstituteParams/RenderLiteral, kept for
// old clients, WAL rendering of parameterized DML, and the benchmark's
// re-parse-per-execution baseline).

// NumParams walks st and returns the highest $n referenced (0 when the
// statement has no parameters).
func NumParams(st Statement) int {
	w := &paramWalker{}
	w.stmt(st)
	return w.max
}

// HasParams reports whether st references any positional parameter.
func HasParams(st Statement) bool { return NumParams(st) > 0 }

type paramWalker struct{ max int }

func (w *paramWalker) stmt(st Statement) {
	switch s := st.(type) {
	case *SelectStmt:
		w.selectStmt(s)
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				w.expr(e)
			}
		}
		if s.Select != nil {
			w.selectStmt(s.Select)
		}
	case *UpdateStmt:
		for _, a := range s.Set {
			w.expr(a.E)
		}
		w.expr(s.Where)
	case *DeleteStmt:
		w.expr(s.Where)
	case *SetStmt:
		w.expr(s.Value)
	}
}

func (w *paramWalker) selectStmt(s *SelectStmt) {
	for _, c := range s.With {
		w.selectStmt(c.Select)
	}
	for _, core := range s.Cores {
		for _, it := range core.Items {
			w.expr(it.E)
		}
		for _, f := range core.From {
			w.tableRef(f)
		}
		w.expr(core.Where)
		for _, g := range core.GroupBy {
			w.expr(g)
		}
		w.expr(core.Having)
	}
	for _, o := range s.OrderBy {
		w.expr(o.E)
	}
}

func (w *paramWalker) tableRef(t TableRef) {
	switch r := t.(type) {
	case *DerivedTable:
		w.selectStmt(r.Select)
	case *JoinTable:
		w.tableRef(r.Left)
		w.tableRef(r.Right)
		w.expr(r.On)
	}
}

func (w *paramWalker) expr(e Expr) {
	switch x := e.(type) {
	case nil:
	case *Param:
		if x.N > w.max {
			w.max = x.N
		}
	case *BinExpr:
		w.expr(x.L)
		w.expr(x.R)
	case *UnExpr:
		w.expr(x.E)
	case *FuncExpr:
		for _, a := range x.Args {
			w.expr(a)
		}
	case *CaseExpr:
		for _, arm := range x.Whens {
			w.expr(arm.Cond)
			w.expr(arm.Then)
		}
		w.expr(x.Else)
	case *IsNullExpr:
		w.expr(x.E)
	case *InExpr:
		w.expr(x.E)
		for _, it := range x.List {
			w.expr(it)
		}
	case *LikeExpr:
		w.expr(x.E)
		w.expr(x.Pattern)
	case *CastExpr:
		w.expr(x.E)
	}
}

// SubstituteParams renders args into the $1..$n references of text.
// Substitution is quote-aware on both quoting forms the lexer knows: a
// $n inside a '...' string literal (with ” escapes) or a "..."
// quoted identifier is data, not a parameter.
func SubstituteParams(text string, args []storage.Value) (string, error) {
	var b strings.Builder
	b.Grow(len(text) + 16*len(args))
	inStr, inIdent := false, false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				inStr = false // '' escapes re-enter on the next quote
			}
			continue
		}
		if inIdent {
			b.WriteByte(c)
			if c == '"' {
				inIdent = false
			}
			continue
		}
		switch {
		case c == '\'':
			inStr = true
			b.WriteByte(c)
		case c == '"':
			inIdent = true
			b.WriteByte(c)
		case c == '$' && i+1 < len(text) && text[i+1] >= '0' && text[i+1] <= '9':
			j := i + 1
			for j < len(text) && text[j] >= '0' && text[j] <= '9' {
				j++
			}
			n, err := strconv.Atoi(text[i+1 : j])
			if err != nil || n < 1 || n > len(args) {
				return "", fmt.Errorf("sql: parameter $%s out of range (%d arguments bound)", text[i+1:j], len(args))
			}
			lit, err := RenderLiteral(args[n-1])
			if err != nil {
				return "", fmt.Errorf("sql: parameter $%d: %w", n, err)
			}
			b.WriteString(lit)
			i = j - 1
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}

// RenderLiteral formats a value as a SQL literal that parses back to
// exactly the same value.
func RenderLiteral(v storage.Value) (string, error) {
	if v.Null {
		return "NULL", nil
	}
	switch v.Type {
	case storage.TypeInt64:
		return strconv.FormatInt(v.I, 10), nil
	case storage.TypeFloat64:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return "", fmt.Errorf("%v has no SQL literal", v.F)
		}
		// FormatFloat 'g' emits forms like -1.5e-07; the parser folds a
		// leading minus into the literal and the lexer accepts e±NN
		// exponents, so every form round-trips to the identical float64.
		// Integral values (and negative zero) come out bare — "5", "-0"
		// — which would lex as INTEGER and change the value's type;
		// keep them floats the same way FloatLit.String does.
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s, nil
	case storage.TypeString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'", nil
	case storage.TypeBool:
		if v.I != 0 {
			return "TRUE", nil
		}
		return "FALSE", nil
	}
	return "", fmt.Errorf("unsupported parameter type %v", v.Type)
}
