package sqlparse

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"idaax/internal/types"
)

func parseOne(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseCreateTable(t *testing.T) {
	st := parseOne(t, `CREATE TABLE IF NOT EXISTS sales (id BIGINT NOT NULL, amount DECIMAL(10,2), region VARCHAR(16), active BOOLEAN)`)
	ct, ok := st.(*CreateTableStmt)
	if !ok {
		t.Fatalf("wrong type %T", st)
	}
	if !ct.IfNotExists || ct.Table != "SALES" || len(ct.Columns) != 4 {
		t.Fatalf("unexpected: %+v", ct)
	}
	if ct.Columns[0].Kind != types.KindInt || !ct.Columns[0].NotNull {
		t.Errorf("column 0: %+v", ct.Columns[0])
	}
	if ct.Columns[1].Kind != types.KindFloat {
		t.Errorf("column 1: %+v", ct.Columns[1])
	}
	if ct.InAccelerator != "" {
		t.Errorf("unexpectedly in accelerator")
	}
}

func TestParseCreateAcceleratorOnlyTable(t *testing.T) {
	st := parseOne(t, `CREATE TABLE stage1 (k BIGINT, v DOUBLE) IN ACCELERATOR idaa1 DISTRIBUTE BY (k)`)
	ct := st.(*CreateTableStmt)
	if ct.InAccelerator != "IDAA1" {
		t.Errorf("accelerator = %q", ct.InAccelerator)
	}
	if ct.DistributeBy != "K" {
		t.Errorf("distribute by = %q", ct.DistributeBy)
	}
	st = parseOne(t, `CREATE TABLE s2 (k BIGINT, v DOUBLE) IN ACCELERATOR acc AS SELECT a, b FROM t`)
	ct = st.(*CreateTableStmt)
	if ct.AsSelect == nil {
		t.Error("AS SELECT missing")
	}
}

func TestParseDistributeBy(t *testing.T) {
	cases := []struct {
		sql string
		key string
	}{
		{`CREATE TABLE t1 (k BIGINT, v DOUBLE) IN ACCELERATOR shards DISTRIBUTE BY HASH(k)`, "K"},
		{`CREATE TABLE t2 (k BIGINT, v DOUBLE) IN ACCELERATOR shards DISTRIBUTE BY HASH ( v )`, "V"},
		{`CREATE TABLE t3 (k BIGINT) IN ACCELERATOR shards DISTRIBUTE BY RANDOM`, ""},
		{`CREATE TABLE t4 (k BIGINT) IN ACCELERATOR shards DISTRIBUTE BY (k)`, "K"},
		{`CREATE TABLE t5 (k BIGINT) IN ACCELERATOR shards DISTRIBUTE BY k`, "K"},
		// A column that happens to be named HASH still works with the legacy
		// spelling (no parenthesis follows).
		{`CREATE TABLE t6 (hash BIGINT) IN ACCELERATOR shards DISTRIBUTE BY hash`, "HASH"},
		// A column named RANDOM needs the parenthesised spelling; bare RANDOM
		// is always the round-robin keyword (empty key).
		{`CREATE TABLE t8 (random BIGINT) IN ACCELERATOR shards DISTRIBUTE BY (random)`, "RANDOM"},
		{`CREATE TABLE t9 (random BIGINT) IN ACCELERATOR shards DISTRIBUTE BY random`, ""},
	}
	for _, tc := range cases {
		ct := parseOne(t, tc.sql).(*CreateTableStmt)
		if ct.DistributeBy != tc.key {
			t.Errorf("%s: key=%q, want key=%q", tc.sql, ct.DistributeBy, tc.key)
		}
	}
	// The clause order is flexible: DISTRIBUTE BY before IN ACCELERATOR.
	ct := parseOne(t, `CREATE TABLE t7 (k BIGINT) DISTRIBUTE BY HASH(k) IN ACCELERATOR shards`).(*CreateTableStmt)
	if ct.InAccelerator != "SHARDS" || ct.DistributeBy != "K" {
		t.Errorf("reordered clauses: %+v", ct)
	}
}

func TestParseInsertForms(t *testing.T) {
	st := parseOne(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`)
	ins := st.(*InsertStmt)
	if ins.Table != "T" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("unexpected insert: %+v", ins)
	}
	st = parseOne(t, `INSERT INTO t SELECT a, b FROM src WHERE a > 1`)
	ins = st.(*InsertStmt)
	if ins.Select == nil {
		t.Fatal("INSERT SELECT missing select")
	}
}

func TestParseSelectFull(t *testing.T) {
	st := parseOne(t, `SELECT DISTINCT c.region AS r, COUNT(*) AS n, SUM(o.amount)
		FROM orders o INNER JOIN customers c ON o.cid = c.id LEFT JOIN extra e ON e.id = c.id
		WHERE o.amount > 10.5 AND c.segment IN ('A', 'B') AND o.note LIKE '%x%'
		GROUP BY c.region HAVING COUNT(*) > 2
		ORDER BY n DESC, r LIMIT 5 OFFSET 2`)
	sel := st.(*SelectStmt)
	if !sel.Distinct || len(sel.Items) != 3 || len(sel.From) != 3 {
		t.Fatalf("unexpected select: %+v", sel)
	}
	if sel.From[1].Join != JoinInner || sel.From[2].Join != JoinLeft {
		t.Errorf("join types: %v %v", sel.From[1].Join, sel.From[2].Join)
	}
	if sel.Limit != 5 || sel.Offset != 2 {
		t.Errorf("limit/offset: %d/%d", sel.Limit, sel.Offset)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil || len(sel.OrderBy) != 2 {
		t.Error("group/having/order parsing failed")
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Error("order direction wrong")
	}
	tables := ReferencedTables(sel)
	if len(tables) != 3 {
		t.Errorf("referenced tables: %v", tables)
	}
}

func TestParseSubqueryInFrom(t *testing.T) {
	st := parseOne(t, `SELECT x.a FROM (SELECT a FROM t WHERE a > 1) AS x WHERE x.a < 10`)
	sel := st.(*SelectStmt)
	if sel.From[0].Subquery == nil || sel.From[0].Alias != "X" {
		t.Fatalf("subquery parse failed: %+v", sel.From[0])
	}
	if _, err := Parse(`SELECT a FROM (SELECT a FROM t)`); err == nil {
		t.Error("subquery without alias should fail")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st := parseOne(t, `UPDATE t SET a = a + 1, b = 'x' WHERE id BETWEEN 1 AND 10`)
	up := st.(*UpdateStmt)
	if len(up.Assignments) != 2 || up.Where == nil {
		t.Fatalf("update: %+v", up)
	}
	st = parseOne(t, `DELETE FROM t WHERE a IS NOT NULL`)
	del := st.(*DeleteStmt)
	if del.Where == nil {
		t.Fatal("delete where missing")
	}
}

func TestParseGrantRevokeCall(t *testing.T) {
	st := parseOne(t, `GRANT SELECT, INSERT ON TABLE secure TO alice`)
	g := st.(*GrantStmt)
	if len(g.Privileges) != 2 || g.Table != "SECURE" || g.Grantee != "ALICE" {
		t.Fatalf("grant: %+v", g)
	}
	st = parseOne(t, `REVOKE SELECT ON secure FROM PUBLIC`)
	r := st.(*RevokeStmt)
	if r.Grantee != "PUBLIC" {
		t.Fatalf("revoke: %+v", r)
	}
	st = parseOne(t, `CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'T1,T2')`)
	c := st.(*CallStmt)
	if c.Procedure != "SYSPROC.ACCEL_ADD_TABLES" || len(c.Args) != 2 {
		t.Fatalf("call: %+v", c)
	}
	st = parseOne(t, `CALL NOARGS`)
	if len(st.(*CallStmt).Args) != 0 {
		t.Fatal("no-arg call")
	}
}

func TestParseTransactionAndSet(t *testing.T) {
	if _, ok := parseOne(t, "BEGIN").(*BeginStmt); !ok {
		t.Error("BEGIN")
	}
	if _, ok := parseOne(t, "COMMIT WORK").(*CommitStmt); !ok {
		t.Error("COMMIT")
	}
	if _, ok := parseOne(t, "ROLLBACK").(*RollbackStmt); !ok {
		t.Error("ROLLBACK")
	}
	set := parseOne(t, "SET CURRENT QUERY ACCELERATION = ALL").(*SetStmt)
	if set.Name != "CURRENT QUERY ACCELERATION" || set.Value != "ALL" {
		t.Fatalf("set: %+v", set)
	}
	set = parseOne(t, "SET CURRENT QUERY ACCELERATION NONE").(*SetStmt)
	if set.Value != "NONE" {
		t.Fatalf("set without '=': %+v", set)
	}
}

func TestParseExplainShow(t *testing.T) {
	an := parseOne(t, "ANALYZE TABLE sales").(*AnalyzeStmt)
	if an.Table != "SALES" {
		t.Fatalf("ANALYZE table = %q", an.Table)
	}
	an = parseOne(t, "ANALYZE sales").(*AnalyzeStmt)
	if an.Table != "SALES" {
		t.Fatalf("ANALYZE short form table = %q", an.Table)
	}

	ex := parseOne(t, "EXPLAIN SELECT * FROM t").(*ExplainStmt)
	if _, ok := ex.Target.(*SelectStmt); !ok {
		t.Fatal("explain target")
	}
	sh := parseOne(t, "SHOW TABLES").(*ShowStmt)
	if sh.What != "TABLES" {
		t.Fatal("show what")
	}
}

func TestParseExpressions(t *testing.T) {
	e, err := ParseExpr(`CASE WHEN a > 1 THEN 'big' ELSE 'small' END`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*CaseExpr); !ok {
		t.Fatalf("case expr: %T", e)
	}
	e, err = ParseExpr(`CAST(a AS DOUBLE) * -2 + COALESCE(b, 0)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*BinaryExpr); !ok {
		t.Fatalf("binary expr: %T", e)
	}
	e, err = ParseExpr(`NOT (a = 1 OR b <> 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*UnaryExpr); !ok {
		t.Fatalf("unary expr: %T", e)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*BinaryExpr)
	if b.Op != OpAdd {
		t.Fatalf("top op %v", b.Op)
	}
	right := b.Right.(*BinaryExpr)
	if right.Op != OpMul {
		t.Fatalf("right op %v", right.Op)
	}

	e, err = ParseExpr("a = 1 AND b = 2 OR c = 3")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*BinaryExpr).Op != OpOr {
		t.Fatal("OR should bind loosest")
	}
}

func TestParseMulti(t *testing.T) {
	stmts, err := ParseMulti(`CREATE TABLE a (x BIGINT); INSERT INTO a VALUES (1); SELECT * FROM a;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELEC * FROM t",
		"CREATE TABLE t",
		"INSERT INTO t VALUSE (1)",
		"SELECT * FROM t WHERE",
		"GRANT ON t TO u",
		"GRANT FOO ON t TO u",
		"GRANT CONTROL ON t TO u",
		"REVOKE SELECT, CONTROL ON t FROM u",
		"SELECT * FROM t GROUP",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT 'unterminated FROM t",
		"UPDATE t SET",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestCommentsAndQuoting(t *testing.T) {
	st := parseOne(t, `-- leading comment
		SELECT a /* inline */ FROM "MyTable" WHERE s = 'it''s'`)
	sel := st.(*SelectStmt)
	// Quoted identifiers are accepted; like unquoted ones they are folded to
	// upper case by the catalog's normalisation rules.
	if sel.From[0].Table != "MYTABLE" {
		t.Errorf("quoted identifier: %q", sel.From[0].Table)
	}
	lit := sel.Where.(*BinaryExpr).Right.(*Literal)
	if lit.Val.Str != "it's" {
		t.Errorf("escaped quote: %q", lit.Val.Str)
	}
}

func TestStatementTables(t *testing.T) {
	st := parseOne(t, "INSERT INTO tgt SELECT * FROM src1, src2")
	tables := StatementTables(st)
	if len(tables) != 3 {
		t.Fatalf("tables = %v", tables)
	}
}

func TestContainsAggregate(t *testing.T) {
	e, _ := ParseExpr("SUM(a) + 1")
	if !ContainsAggregate(e) {
		t.Error("SUM should be detected")
	}
	e, _ = ParseExpr("UPPER(a)")
	if ContainsAggregate(e) {
		t.Error("UPPER is not an aggregate")
	}
}

// TestLexerNeverPanicsProperty feeds arbitrary strings to the parser; it may
// return errors but must never panic.
func TestLexerNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on input %q: %v", s, r)
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFetchFirstRows(t *testing.T) {
	sel := parseOne(t, "SELECT a FROM t FETCH FIRST 7 ROWS ONLY").(*SelectStmt)
	if sel.Limit != 7 {
		t.Fatalf("limit = %d", sel.Limit)
	}
}

func TestParseAlterAccelerator(t *testing.T) {
	st := parseOne(t, `ALTER ACCELERATOR shards ADD MEMBER idaa4 SLICES 8`)
	al, ok := st.(*AlterAcceleratorStmt)
	if !ok {
		t.Fatalf("wrong type %T", st)
	}
	if al.Accelerator != "SHARDS" || al.Member != "IDAA4" || al.Remove || al.Slices != 8 {
		t.Fatalf("unexpected: %+v", al)
	}

	st = parseOne(t, `ALTER ACCELERATOR SHARDS ADD MEMBER IDAA5`)
	al = st.(*AlterAcceleratorStmt)
	if al.Remove || al.Slices != 0 || al.Member != "IDAA5" {
		t.Fatalf("unexpected: %+v", al)
	}

	st = parseOne(t, `ALTER ACCELERATOR SHARDS REMOVE MEMBER IDAA2;`)
	al = st.(*AlterAcceleratorStmt)
	if !al.Remove || al.Member != "IDAA2" {
		t.Fatalf("unexpected: %+v", al)
	}

	for _, bad := range []string{
		`ALTER ACCELERATOR SHARDS`,
		`ALTER ACCELERATOR SHARDS DROP MEMBER IDAA2`,
		`ALTER ACCELERATOR SHARDS ADD IDAA2`,
		`ALTER ACCELERATOR SHARDS ADD MEMBER IDAA2 SLICES x`,
		`ALTER ACCELERATOR SHARDS ADD MEMBER IDAA2 SLICES 0`,
		`ALTER TABLE t ADD COLUMN c INT`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestNegativeNumbersParseToLiterals pins that the parser folds a unary minus
// on a numeric literal, parenthesized or spaced, into the literal itself, so
// no recognizer of "col <op> literal" needs a unary-minus arm.
func TestNegativeNumbersParseToLiterals(t *testing.T) {
	for sql, want := range map[string]types.Value{
		"SELECT * FROM t WHERE x = -5":    types.NewInt(-5),
		"SELECT * FROM t WHERE x = -(5)":  types.NewInt(-5),
		"SELECT * FROM t WHERE x = - 2.5": types.NewFloat(-2.5),
	} {
		where := parseOne(t, sql).(*SelectStmt).Where.(*BinaryExpr)
		lit, ok := where.Right.(*Literal)
		if !ok {
			t.Errorf("%s: right operand is %T, want *Literal", sql, where.Right)
			continue
		}
		if lit.Val != want {
			t.Errorf("%s: literal %v, want %v", sql, lit.Val, want)
		}
	}
}

// The literal rows below also seed FuzzParse, which reads every string in
// this file.

func TestParseStringLiterals(t *testing.T) {
	for sql, want := range map[string]string{
		`INSERT INTO t VALUES ('it''s')`:    "it's",
		`INSERT INTO t VALUES ('')`:         "",
		`INSERT INTO t VALUES ('''')`:       "'",
		`INSERT INTO t VALUES ('Zürich')`:   "Zürich",
		`INSERT INTO t VALUES ('a''''b''')`: "a''b'",
	} {
		lit, ok := parseOne(t, sql).(*InsertStmt).Rows[0][0].(*Literal)
		if !ok || lit.Val.Kind != types.KindString || lit.Val.Str != want {
			t.Errorf("%s: got %#v, want string %q", sql, lit, want)
		}
	}
	for _, sql := range []string{`INSERT INTO t VALUES ('abc`, `INSERT INTO t VALUES ('it''s)`, `SELECT 'abc`} {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "unterminated string literal") {
			t.Errorf("Parse(%q) = %v, want an unterminated string literal error", sql, err)
		}
	}
}

// TestStringLiteralOwnsItsBytes pins that a string literal does not alias
// the statement text: the column store keeps every string it is given, so an
// aliasing literal would keep the whole statement alive with the row.
func TestStringLiteralOwnsItsBytes(t *testing.T) {
	sql := `INSERT INTO t VALUES ('abc', 'd''e')`
	text := unsafe.StringData(sql)
	for i, e := range parseOne(t, sql).(*InsertStmt).Rows[0] {
		s := e.(*Literal).Val.Str
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		if lo := uintptr(unsafe.Pointer(text)); p >= lo && p < lo+uintptr(len(sql)) {
			t.Errorf("literal %d (%q) points into the statement text", i, s)
		}
	}
}

func TestParseInsertMixedRow(t *testing.T) {
	rows := parseOne(t, `INSERT INTO t VALUES (1+2, -3, 'x' || 'y'), (4, - 2.5, NULL)`).(*InsertStmt).Rows
	if len(rows) != 2 || len(rows[0]) != 3 || len(rows[1]) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if b, ok := rows[0][0].(*BinaryExpr); !ok || b.Op != OpAdd {
		t.Errorf("cell 0: %#v, want 1+2", rows[0][0])
	}
	if lit, ok := rows[0][1].(*Literal); !ok || lit.Val != types.NewInt(-3) {
		t.Errorf("cell 1: %#v, want literal -3", rows[0][1])
	}
	if b, ok := rows[0][2].(*BinaryExpr); !ok || b.Op != OpConcat {
		t.Errorf("cell 2: %#v, want 'x' || 'y'", rows[0][2])
	}
	want := []types.Value{types.NewInt(4), types.NewFloat(-2.5), types.Null()}
	for i, w := range want {
		if lit, ok := rows[1][i].(*Literal); !ok || lit.Val != w {
			t.Errorf("row 1 cell %d: %#v, want %v", i, rows[1][i], w)
		}
	}
	checkRowsDoNotAlias(t, rows)
}

// checkRowsDoNotAlias fails unless every VALUES row is a full slice: appending
// to row i must never change row i+1.
func checkRowsDoNotAlias(t *testing.T, rows [][]Expr) {
	t.Helper()
	sentinel := &Literal{Val: types.NewString("sentinel")}
	for i := 0; i+1 < len(rows); i++ {
		next := append([]Expr(nil), rows[i+1]...)
		_ = append(rows[i], sentinel)
		for j := range next {
			if rows[i+1][j] != next[j] {
				t.Fatalf("appending to row %d changed row %d cell %d", i, i+1, j)
			}
		}
	}
}

// insertValuesSQL is a literal INSERT of n rows × 5 columns mixing ints,
// decimals, strings and NULL.
func insertValuesSQL(n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO raw_events VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.%02d, 'region-%d', NULL, -%d)", i, i*7, i%100, i%13, i%5)
	}
	return sb.String()
}

// TestParseInsertValuesAllocs pins the parser's allocation rule for literal
// rows: beyond the one allocation each string literal needs to own its bytes,
// the count does not grow with the number of rows.
func TestParseInsertValuesAllocs(t *testing.T) {
	const stringsPerRow = 1
	allocs := func(n int) float64 {
		sql := insertValuesSQL(n)
		st := parseOne(t, sql).(*InsertStmt)
		if len(st.Rows) != n {
			t.Fatalf("%d rows parsed, want %d", len(st.Rows), n)
		}
		for i, row := range st.Rows {
			if len(row) != 5 || cap(row) != len(row) {
				t.Fatalf("row %d: len %d cap %d, want 5 and cap == len", i, len(row), cap(row))
			}
		}
		checkRowsDoNotAlias(t, st.Rows)
		return testing.AllocsPerRun(20, func() {
			if _, err := Parse(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(1000)
	perRow := (large - small) / 500
	t.Logf("allocations: %.0f for 500 rows, %.0f for 1000 rows (%.3f per row)", small, large, perRow)
	if perRow > stringsPerRow+0.05 {
		t.Errorf("%.3f allocations per extra row, want at most %d (its string literal) + 0.05", perRow, stringsPerRow)
	}
	if small > 500*stringsPerRow+100 {
		t.Errorf("%.0f allocations for 500 rows, want at most %d", small, 500*stringsPerRow+100)
	}
}

func BenchmarkParseInsertValues(b *testing.B) {
	sql := insertValuesSQL(500)
	b.ReportAllocs()
	b.SetBytes(int64(len(sql)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}
