// Package sql implements the SQL front end of the engine: a lexer, an
// AST, a recursive-descent parser for the dialect the Vertexica layer
// generates, and an AST printer (so parse→print→parse round-trips,
// which the property tests rely on).
//
// Supported statements: SELECT (joins, comma cross-joins, WHERE,
// GROUP BY/HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT, UNION ALL, WITH
// CTEs, derived tables), INSERT (VALUES and SELECT forms), UPDATE,
// DELETE, CREATE TABLE, DROP TABLE, TRUNCATE, EXPLAIN [ANALYZE]
// <statement>, and the session-control statements BEGIN / COMMIT /
// ROLLBACK / SET <var> = <expr> / SHOW <var>.
package sql

import "fmt"

// TokenKind classifies lexer tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol
	TokParam // $1, $2, ... — positional parameter placeholder
)

// Token is one lexical token with its source position (1-based).
type Token struct {
	Kind TokenKind
	Text string // normalized: keywords upper-cased, idents as written
	Pos  int    // byte offset in the input
	Line int
	Col  int
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// keywords is the reserved-word list. Identifiers matching these (case-
// insensitively) lex as TokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"NULL": true, "TRUE": true, "FALSE": true, "IN": true, "IS": true,
	"LIKE": true, "BETWEEN": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CAST": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "FULL": true, "OUTER": true, "CROSS": true,
	"ON": true, "UNION": true, "ALL": true, "DISTINCT": true, "WITH": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "DROP": true, "IF": true,
	"EXISTS": true, "TRUNCATE": true, "INTEGER": true, "BIGINT": true,
	"DOUBLE": true, "FLOAT": true, "VARCHAR": true, "TEXT": true,
	"BOOLEAN": true, "PRECISION": true, "BEGIN": true, "COMMIT": true,
	"ROLLBACK": true, "SHOW": true, "PARTITION": true, "HASH": true,
	"SHARDS": true, "EXPLAIN": true, "ANALYZE": true,
}

// IsKeyword reports whether word (already upper-cased) is a reserved
// word of the dialect. The parse-cache fingerprint uses it to case-fold
// keywords without touching identifiers or literals.
func IsKeyword(upper string) bool { return keywords[upper] }

// symbols lists multi-char symbols first so the lexer prefers the
// longest match.
var symbols = []string{
	"<>", "!=", "<=", ">=", "||", "(", ")", ",", ".", "*", "/", "%",
	"+", "-", "=", "<", ">", ";",
}
