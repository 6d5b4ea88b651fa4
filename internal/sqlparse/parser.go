package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"idaax/internal/types"
)

// Parse parses a single SQL statement. A trailing semicolon is permitted.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input at %q", p.peek().Text)
	}
	return st, nil
}

// ParseMulti parses a script of semicolon-separated statements.
func ParseMulti(sql string) ([]Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for {
		for p.accept(tokSymbol, ";") {
		}
		if p.atEOF() {
			return out, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(tokSymbol, ";") && !p.atEOF() {
			return nil, fmt.Errorf("sql: expected ';' between statements, got %q", p.peek().Text)
		}
	}
}

// ParseExpr parses a standalone scalar expression (used by the analytics
// framework for column expressions passed as procedure arguments).
func ParseExpr(sql string) (Expr, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected trailing input in expression at %q", p.peek().Text)
	}
	return e, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) atEOF() bool { return p.peek().Type == tokEOF }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if t.Type != tokEOF {
		p.pos++
	}
	return t
}

// accept consumes the next token if it matches type and (case-insensitive) text.
func (p *parser) accept(tt TokenType, text string) bool {
	t := p.peek()
	if t.Type != tt {
		return false
	}
	if text != "" && !strings.EqualFold(t.Text, text) {
		return false
	}
	p.advance()
	return true
}

func (p *parser) acceptKeyword(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.accept(tokSymbol, sym) {
		return fmt.Errorf("sql: expected %q, got %q", sym, p.peek().Text)
	}
	return nil
}

// peekIdent reports whether the next token is the given identifier without
// consuming it.
func (p *parser) peekIdent(text string) bool {
	t := p.peek()
	return t.Type == tokIdent && strings.EqualFold(t.Text, text)
}

// peekAheadSymbol reports whether the token after the next one is the given
// symbol. It lets the CREATE TABLE grammar distinguish DISTRIBUTE BY HASH(col)
// from a distribution column that happens to be named HASH.
func (p *parser) peekAheadSymbol(sym string) bool {
	if p.pos+1 >= len(p.toks) {
		return false
	}
	t := p.toks[p.pos+1]
	return t.Type == tokSymbol && strings.EqualFold(t.Text, sym)
}

// identifier accepts an identifier or a non-reserved keyword used as a name
// (the lexer classifies e.g. COUNT and ACCELERATION as keywords).
func (p *parser) identifier() (string, error) {
	t := p.peek()
	if t.Type == tokIdent || t.Type == tokKeyword {
		p.advance()
		return types.NormalizeName(t.Text), nil
	}
	return "", fmt.Errorf("sql: expected identifier, got %q", t.Text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Type != tokKeyword {
		return nil, fmt.Errorf("sql: expected a statement keyword, got %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreateTable()
	case "ALTER":
		return p.parseAlterAccelerator()
	case "DROP":
		return p.parseDropTable()
	case "TRUNCATE":
		return p.parseTruncate()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "GRANT":
		return p.parseGrant()
	case "REVOKE":
		return p.parseRevoke()
	case "CALL":
		return p.parseCall()
	case "BEGIN":
		p.advance()
		p.acceptKeyword("TRANSACTION")
		p.acceptKeyword("WORK")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.advance()
		p.acceptKeyword("WORK")
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.advance()
		p.acceptKeyword("WORK")
		return &RollbackStmt{}, nil
	case "SET":
		return p.parseSet()
	case "EXPLAIN":
		p.advance()
		analyze := p.acceptKeyword("ANALYZE")
		target, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Target: target, Analyze: analyze}, nil
	case "ANALYZE":
		p.advance()
		p.acceptKeyword("TABLE")
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		return &AnalyzeStmt{Table: name}, nil
	case "SHOW":
		p.advance()
		what, err := p.identifier()
		if err != nil {
			return nil, err
		}
		return &ShowStmt{What: what}, nil
	default:
		return nil, fmt.Errorf("sql: unsupported statement starting with %q", t.Text)
	}
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name

	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}

	for {
		switch {
		case p.acceptKeyword("IN"):
			if err := p.expectKeyword("ACCELERATOR"); err != nil {
				return nil, err
			}
			acc, err := p.identifier()
			if err != nil {
				return nil, err
			}
			st.InAccelerator = acc
		case p.acceptKeyword("DISTRIBUTE"):
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			switch {
			case p.peekIdent("RANDOM") && !p.peekAheadSymbol("("):
				// DISTRIBUTE BY RANDOM: round-robin placement, no key. A bare
				// RANDOM always means the keyword; hash-distribute on a column
				// that happens to be named RANDOM with the parenthesised
				// spelling DISTRIBUTE BY (random).
				p.advance()
				st.DistributeBy = ""
			case p.peekIdent("HASH") && p.peekAheadSymbol("("):
				// DISTRIBUTE BY HASH ( col )
				p.advance()
				if err := p.expectSymbol("("); err != nil {
					return nil, err
				}
				col, err := p.identifier()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				st.DistributeBy = col
			default:
				// Legacy spellings: DISTRIBUTE BY (col) and DISTRIBUTE BY col,
				// both meaning hash distribution on the column.
				hasParen := p.accept(tokSymbol, "(")
				col, err := p.identifier()
				if err != nil {
					return nil, err
				}
				if hasParen {
					if err := p.expectSymbol(")"); err != nil {
						return nil, err
					}
				}
				st.DistributeBy = col
			}
		case p.acceptKeyword("AS"):
			p.accept(tokSymbol, "(")
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			p.accept(tokSymbol, ")")
			st.AsSelect = sel
		default:
			if len(st.Columns) == 0 && st.AsSelect == nil {
				return nil, fmt.Errorf("sql: CREATE TABLE %s needs a column list or AS SELECT", st.Table)
			}
			return st, nil
		}
	}
}

// parseAlterAccelerator parses the elastic-fleet DDL:
// ALTER ACCELERATOR <group> ADD MEMBER <name> [SLICES n] | REMOVE MEMBER <name>.
func (p *parser) parseAlterAccelerator() (Statement, error) {
	if err := p.expectKeyword("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ACCELERATOR"); err != nil {
		return nil, err
	}
	group, err := p.identifier()
	if err != nil {
		return nil, err
	}
	st := &AlterAcceleratorStmt{Accelerator: group}
	switch {
	case p.acceptKeyword("ADD"):
	case p.acceptKeyword("REMOVE"):
		st.Remove = true
	default:
		return nil, fmt.Errorf("sql: ALTER ACCELERATOR %s: expected ADD or REMOVE, got %q", group, p.peek().Text)
	}
	if err := p.expectKeyword("MEMBER"); err != nil {
		return nil, err
	}
	member, err := p.identifier()
	if err != nil {
		return nil, err
	}
	st.Member = member
	if !st.Remove && p.acceptKeyword("SLICES") {
		t := p.peek()
		if t.Type != tokNumber {
			return nil, fmt.Errorf("sql: SLICES expects a number, got %q", t.Text)
		}
		p.advance()
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("sql: invalid SLICES value %q", t.Text)
		}
		st.Slices = n
	}
	return st, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.identifier()
	if err != nil {
		return ColumnDef{}, err
	}
	typeName, err := p.identifier()
	if err != nil {
		return ColumnDef{}, fmt.Errorf("sql: column %s: %w", name, err)
	}
	// Swallow optional length/precision: VARCHAR(32), DECIMAL(10,2).
	if p.accept(tokSymbol, "(") {
		for !p.accept(tokSymbol, ")") {
			if p.atEOF() {
				return ColumnDef{}, fmt.Errorf("sql: unterminated type parameters for column %s", name)
			}
			p.advance()
		}
	}
	kind, err := types.KindFromName(typeName)
	if err != nil {
		return ColumnDef{}, err
	}
	def := ColumnDef{Name: name, Kind: kind}
	for {
		switch {
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		case p.acceptKeyword("UNIQUE"), p.acceptKeyword("NULL"):
			// accepted and ignored
		default:
			return def, nil
		}
	}
}

func (p *parser) parseDropTable() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	return st, nil
}

func (p *parser) parseTruncate() (Statement, error) {
	if err := p.expectKeyword("TRUNCATE"); err != nil {
		return nil, err
	}
	p.acceptKeyword("TABLE")
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	return &TruncateStmt{Table: name}, nil
}

// qualifiedName parses NAME or SCHEMA.NAME and returns the flattened,
// dot-joined, upper-cased name.
func (p *parser) qualifiedName() (string, error) {
	first, err := p.identifier()
	if err != nil {
		return "", err
	}
	if p.accept(tokSymbol, ".") {
		second, err := p.identifier()
		if err != nil {
			return "", err
		}
		return first + "." + second, nil
	}
	return first, nil
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	st := &InsertStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKeyword("VALUES"):
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
				if p.accept(tokSymbol, ",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			st.Rows = append(st.Rows, row)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	case p.peek().Type == tokKeyword && p.peek().Text == "SELECT":
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Select = sel
	case p.accept(tokSymbol, "("):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Select = sel
	default:
		return nil, fmt.Errorf("sql: INSERT expects VALUES or SELECT, got %q", p.peek().Text)
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.identifier()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Assignments = append(st.Assignments, Assignment{Column: col, Value: val})
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		st.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		st.From = from
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Offset = n
	}
	// DB2's FETCH FIRST n ROWS ONLY.
	if p.acceptKeyword("FETCH") {
		p.acceptKeyword("FIRST")
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		st.Limit = n
		// Swallow ROWS ONLY / ROW ONLY.
		for {
			txt := strings.ToUpper(p.peek().Text)
			if (p.peek().Type == tokKeyword || p.peek().Type == tokIdent) && (txt == "ROWS" || txt == "ROW" || txt == "ONLY") {
				p.advance()
				continue
			}
			break
		}
	}
	return st, nil
}

func (p *parser) parseIntLiteral() (int64, error) {
	t := p.peek()
	if t.Type != tokNumber {
		return 0, fmt.Errorf("sql: expected integer literal, got %q", t.Text)
	}
	p.advance()
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sql: invalid integer %q", t.Text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form: identifier '.' '*'
	if p.peek().Type == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Type == tokSymbol && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Type == tokSymbol && p.toks[p.pos+2].Text == "*" {
		tbl := types.NormalizeName(p.advance().Text)
		p.advance() // .
		p.advance() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.identifier()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Type == tokIdent {
		item.Alias = types.NormalizeName(p.advance().Text)
	}
	return item, nil
}

func (p *parser) parseFrom() ([]FromItem, error) {
	var items []FromItem
	first, err := p.parseFromItem(JoinNone)
	if err != nil {
		return nil, err
	}
	items = append(items, first)
	for {
		switch {
		case p.accept(tokSymbol, ","):
			it, err := p.parseFromItem(JoinCross)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		case p.acceptKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			it, err := p.parseJoinItem(JoinInner)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		case p.acceptKeyword("LEFT"):
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			it, err := p.parseJoinItem(JoinLeft)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		case p.acceptKeyword("CROSS"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			it, err := p.parseFromItem(JoinCross)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		case p.acceptKeyword("JOIN"):
			it, err := p.parseJoinItem(JoinInner)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
		default:
			return items, nil
		}
	}
}

func (p *parser) parseJoinItem(jt JoinType) (FromItem, error) {
	it, err := p.parseFromItem(jt)
	if err != nil {
		return FromItem{}, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return FromItem{}, err
	}
	on, err := p.parseExpr()
	if err != nil {
		return FromItem{}, err
	}
	it.On = on
	return it, nil
}

func (p *parser) parseFromItem(jt JoinType) (FromItem, error) {
	it := FromItem{Join: jt}
	if p.accept(tokSymbol, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return FromItem{}, err
		}
		it.Subquery = sel
	} else {
		name, err := p.qualifiedName()
		if err != nil {
			return FromItem{}, err
		}
		it.Table = name
	}
	if p.acceptKeyword("AS") {
		alias, err := p.identifier()
		if err != nil {
			return FromItem{}, err
		}
		it.Alias = alias
	} else if p.peek().Type == tokIdent {
		it.Alias = types.NormalizeName(p.advance().Text)
	}
	if it.Subquery != nil && it.Alias == "" {
		return FromItem{}, fmt.Errorf("sql: subquery in FROM requires an alias")
	}
	return it, nil
}

// ---------------------------------------------------------------------------
// Governance, procedures, session control
// ---------------------------------------------------------------------------

func (p *parser) parseGrant() (Statement, error) {
	if err := p.expectKeyword("GRANT"); err != nil {
		return nil, err
	}
	st := &GrantStmt{}
	privs, err := p.parsePrivilegeList()
	if err != nil {
		return nil, err
	}
	st.Privileges = privs
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	p.acceptKeyword("TABLE")
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKeyword("TO"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("PUBLIC") {
		st.Grantee = "PUBLIC"
	} else {
		g, err := p.identifier()
		if err != nil {
			return nil, err
		}
		st.Grantee = g
	}
	return st, nil
}

func (p *parser) parseRevoke() (Statement, error) {
	if err := p.expectKeyword("REVOKE"); err != nil {
		return nil, err
	}
	st := &RevokeStmt{}
	privs, err := p.parsePrivilegeList()
	if err != nil {
		return nil, err
	}
	st.Privileges = privs
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	p.acceptKeyword("TABLE")
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("PUBLIC") {
		st.Grantee = "PUBLIC"
	} else {
		g, err := p.identifier()
		if err != nil {
			return nil, err
		}
		st.Grantee = g
	}
	return st, nil
}

// tablePrivileges are the privileges GRANT and REVOKE accept on a table.
// CONTROL is not among them: only the owner and SYSADM hold it.
var tablePrivileges = map[string]bool{"SELECT": true, "INSERT": true, "UPDATE": true, "DELETE": true, "ALL": true}

func (p *parser) parsePrivilegeList() ([]string, error) {
	var privs []string
	for {
		t := p.peek()
		priv := strings.ToUpper(t.Text)
		if (t.Type != tokKeyword && t.Type != tokIdent) || !tablePrivileges[priv] {
			return nil, fmt.Errorf("sql: expected SELECT, INSERT, UPDATE, DELETE or ALL, got %q", t.Text)
		}
		p.advance()
		privs = append(privs, priv)
		if p.accept(tokSymbol, ",") {
			continue
		}
		return privs, nil
	}
}

func (p *parser) parseCall() (Statement, error) {
	if err := p.expectKeyword("CALL"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	st := &CallStmt{Procedure: name}
	if p.accept(tokSymbol, "(") {
		if !p.accept(tokSymbol, ")") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Args = append(st.Args, e)
				if p.accept(tokSymbol, ",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

func (p *parser) parseSet() (Statement, error) {
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	// SET CURRENT QUERY ACCELERATION [=] value, or SET <ident> [=] value.
	var nameParts []string
	for {
		t := p.peek()
		if t.Type == tokKeyword || t.Type == tokIdent {
			if t.Type == tokKeyword && (t.Text == "NONE" || t.Text == "ALL" || t.Text == "ENABLE" || t.Text == "ELIGIBLE" || t.Text == "TRUE" || t.Text == "FALSE") && len(nameParts) > 0 {
				break
			}
			nameParts = append(nameParts, t.Text)
			p.advance()
			continue
		}
		break
	}
	if len(nameParts) == 0 {
		return nil, fmt.Errorf("sql: SET requires a register name")
	}
	p.accept(tokSymbol, "=")
	var value string
	t := p.peek()
	switch t.Type {
	case tokKeyword, tokIdent, tokNumber, tokString:
		value = t.Text
		p.advance()
	default:
		return nil, fmt.Errorf("sql: SET %s requires a value", strings.Join(nameParts, " "))
	}
	return &SetStmt{Name: strings.ToUpper(strings.Join(nameParts, " ")), Value: strings.ToUpper(value)}, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		operand, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Operand: operand}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Operand: left, Negate: negate}, nil
	}
	negate := false
	if p.peek().Type == tokKeyword && p.peek().Text == "NOT" {
		next := p.toks[p.pos+1]
		if next.Type == tokKeyword && (next.Text == "IN" || next.Text == "BETWEEN" || next.Text == "LIKE") {
			p.advance()
			negate = true
		}
	}
	switch {
	case p.acceptKeyword("IN"):
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
			if p.accept(tokSymbol, ",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{Operand: left, List: list, Negate: negate}, nil
	case p.acceptKeyword("BETWEEN"):
		low, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		high, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Operand: left, Low: low, High: high, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		pattern, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Operand: left, Pattern: pattern, Negate: negate}, nil
	}
	t := p.peek()
	if t.Type == tokSymbol {
		var op BinOp
		matched := true
		switch t.Text {
		case "=":
			op = OpEq
		case "<>", "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			matched = false
		}
		if matched {
			p.advance()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Type != tokSymbol {
			return left, nil
		}
		var op BinOp
		switch t.Text {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Type != tokSymbol {
			return left, nil
		}
		var op BinOp
		switch t.Text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := operand.(*Literal); ok {
			switch lit.Val.Kind {
			case types.KindInt:
				return &Literal{Val: types.NewInt(-lit.Val.Int)}, nil
			case types.KindFloat:
				return &Literal{Val: types.NewFloat(-lit.Val.Float)}, nil
			}
		}
		return &UnaryExpr{Op: "-", Operand: operand}, nil
	}
	if p.accept(tokSymbol, "+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Type {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: invalid number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, fmt.Errorf("sql: invalid number %q", t.Text)
			}
			return &Literal{Val: types.NewFloat(f)}, nil
		}
		return &Literal{Val: types.NewInt(n)}, nil
	case tokString:
		p.advance()
		return &Literal{Val: types.NewString(t.Text)}, nil
	case tokSymbol:
		if t.Text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, fmt.Errorf("sql: unexpected token %q in expression", t.Text)
	case tokKeyword:
		switch t.Text {
		case "NULL":
			p.advance()
			return &Literal{Val: types.Null()}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseFuncOrColumn()
		default:
			// Non-reserved keyword used as identifier (e.g. ACCELERATION).
			return p.parseFuncOrColumn()
		}
	case tokIdent:
		return p.parseFuncOrColumn()
	default:
		return nil, fmt.Errorf("sql: unexpected token %q in expression", t.Text)
	}
}

func (p *parser) parseFuncOrColumn() (Expr, error) {
	name, err := p.identifier()
	if err != nil {
		return nil, err
	}
	// Function call.
	if p.accept(tokSymbol, "(") {
		fc := &FuncCall{Name: name}
		if p.accept(tokSymbol, "*") {
			fc.Star = true
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if p.acceptKeyword("DISTINCT") {
			fc.Distinct = true
		}
		if !p.accept(tokSymbol, ")") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, e)
				if p.accept(tokSymbol, ",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		}
		return fc, nil
	}
	// Qualified column reference.
	if p.accept(tokSymbol, ".") {
		col, err := p.identifier()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	if p.peek().Type != tokKeyword || p.peek().Text != "WHEN" {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = operand
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: result})
	}
	if len(ce.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN clause")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

func (p *parser) parseCast() (Expr, error) {
	if err := p.expectKeyword("CAST"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	operand, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	typeName, err := p.identifier()
	if err != nil {
		return nil, err
	}
	if p.accept(tokSymbol, "(") {
		for !p.accept(tokSymbol, ")") {
			if p.atEOF() {
				return nil, fmt.Errorf("sql: unterminated CAST type parameters")
			}
			p.advance()
		}
	}
	kind, err := types.KindFromName(typeName)
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CastExpr{Operand: operand, To: kind}, nil
}
