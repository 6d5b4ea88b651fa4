// Package sqlparse implements the SQL dialect shared by the DB2 engine and the
// accelerator. The dialect covers the statements the paper relies on:
// CREATE TABLE ... IN ACCELERATOR (accelerator-only tables), INSERT/UPDATE/
// DELETE, SELECT with joins/grouping/ordering, GRANT/REVOKE for governance,
// CALL for the analytics procedure framework, and SET CURRENT QUERY
// ACCELERATION for offload control.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenType classifies lexer tokens.
type TokenType int

const (
	tokEOF TokenType = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
)

// Token is a single lexical token with its source position (1-based).
type Token struct {
	Type TokenType
	Text string // keywords are upper-cased; identifiers preserve quoting rules
	Pos  int
}

func (t Token) String() string {
	switch t.Type {
	case tokEOF:
		return "<eof>"
	case tokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "AS": true, "DISTINCT": true, "ALL": true, "AND": true,
	"OR": true, "NOT": true, "NULL": true, "TRUE": true, "FALSE": true,
	"IS": true, "IN": true, "BETWEEN": true, "LIKE": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "CAST": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true,
	"ON": true, "CROSS": true, "UNION": true,
	"CREATE": true, "TABLE": true, "DROP": true, "IF": true, "EXISTS": true,
	"PRIMARY": true, "KEY": true, "UNIQUE": true, "DEFAULT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "TRUNCATE": true,
	"ACCELERATOR": true, "ONLY": true, "DISTRIBUTE": true,
	"GRANT": true, "REVOKE": true, "TO": true, "PUBLIC": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "TRANSACTION": true, "WORK": true,
	"CALL": true, "CURRENT": true, "QUERY": true, "ACCELERATION": true,
	"NONE": true, "ENABLE": true, "ELIGIBLE": true, "WITH": true, "FAILBACK": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"EXPLAIN": true, "SHOW": true, "TABLES": true, "ACCELERATORS": true, "ANALYZE": true,
	"FETCH": true, "FIRST": true, "ROWS": true, "ROW": true,
	"ALTER": true, "ADD": true, "REMOVE": true, "MEMBER": true, "SLICES": true,
}

// lexer turns SQL text into tokens.
type lexer struct {
	input string
	pos   int
}

func lex(input string) ([]Token, error) {
	l := &lexer{input: input}
	var out []Token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Type == tokEOF {
			return out, nil
		}
	}
}

func (l *lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.input) {
		return Token{Type: tokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	ch := l.input[l.pos]
	switch {
	case isIdentStart(rune(ch)):
		return l.lexIdent(start), nil
	case ch >= '0' && ch <= '9':
		return l.lexNumber(start), nil
	case ch == '\'':
		return l.lexString(start)
	case ch == '"':
		return l.lexQuotedIdent(start)
	case ch == '.' && l.pos+1 < len(l.input) && isDigit(l.input[l.pos+1]):
		return l.lexNumber(start), nil
	default:
		return l.lexSymbol(start)
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.input) {
		ch := l.input[l.pos]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			l.pos++
		case ch == '-' && l.pos+1 < len(l.input) && l.input[l.pos+1] == '-':
			for l.pos < len(l.input) && l.input[l.pos] != '\n' {
				l.pos++
			}
		case ch == '/' && l.pos+1 < len(l.input) && l.input[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.input) && !(l.input[l.pos] == '*' && l.input[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.input) {
				l.pos = len(l.input)
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' || r == '#'
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func (l *lexer) lexIdent(start int) Token {
	for l.pos < len(l.input) && isIdentPart(rune(l.input[l.pos])) {
		l.pos++
	}
	text := l.input[start:l.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		return Token{Type: tokKeyword, Text: upper, Pos: start}
	}
	return Token{Type: tokIdent, Text: upper, Pos: start}
}

func (l *lexer) lexQuotedIdent(start int) (Token, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.input) {
		ch := l.input[l.pos]
		if ch == '"' {
			if l.pos+1 < len(l.input) && l.input[l.pos+1] == '"' {
				sb.WriteByte('"')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Type: tokIdent, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(ch)
		l.pos++
	}
	return Token{}, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
}

func (l *lexer) lexNumber(start int) Token {
	seenDot := false
	seenExp := false
	for l.pos < len(l.input) {
		ch := l.input[l.pos]
		switch {
		case isDigit(ch):
			l.pos++
		case ch == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (ch == 'e' || ch == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.input) && (l.input[l.pos] == '+' || l.input[l.pos] == '-') {
				l.pos++
			}
		default:
			return Token{Type: tokNumber, Text: l.input[start:l.pos], Pos: start}
		}
	}
	return Token{Type: tokNumber, Text: l.input[start:l.pos], Pos: start}
}

func (l *lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	body := l.pos
	escapes := 0 // doubled quotes ('') inside the literal
	for l.pos < len(l.input) {
		if l.input[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '\'' {
			escapes++
			l.pos += 2
			continue
		}
		raw := l.input[body:l.pos]
		l.pos++
		return Token{Type: tokString, Text: unquote(raw, escapes), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
}

// unquote returns a string literal's value in one exact-size allocation of
// its own. It must not alias the statement text: the column store keeps every
// string it is given, so an aliasing literal would pin the whole statement
// for as long as the row lives.
func unquote(raw string, escapes int) string {
	if escapes == 0 {
		return strings.Clone(raw)
	}
	var sb strings.Builder
	sb.Grow(len(raw) - escapes)
	for i := 0; i < len(raw); i++ {
		sb.WriteByte(raw[i])
		if raw[i] == '\'' {
			i++ // skip the second quote of the pair
		}
	}
	return sb.String()
}

var twoCharSymbols = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true,
}

func (l *lexer) lexSymbol(start int) (Token, error) {
	if l.pos+1 < len(l.input) {
		two := l.input[l.pos : l.pos+2]
		if twoCharSymbols[two] {
			l.pos += 2
			return Token{Type: tokSymbol, Text: two, Pos: start}, nil
		}
	}
	ch := l.input[l.pos]
	switch ch {
	case '(', ')', ',', '.', ';', '*', '/', '+', '-', '=', '<', '>', '?', '%':
		l.pos++
		return Token{Type: tokSymbol, Text: l.input[start:l.pos], Pos: start}, nil
	default:
		return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", ch, start)
	}
}
