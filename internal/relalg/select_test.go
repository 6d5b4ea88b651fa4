package relalg

import (
	"testing"

	"idaax/internal/expr"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

func ordersRelation() *Relation {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "REGION", Kind: types.KindString},
		types.Column{Name: "AMOUNT", Kind: types.KindFloat},
	)
	rows := []types.Row{
		{types.NewInt(1), types.NewString("EU"), types.NewFloat(10)},
		{types.NewInt(2), types.NewString("US"), types.NewFloat(20)},
		{types.NewInt(3), types.NewString("EU"), types.NewFloat(30)},
		{types.NewInt(4), types.NewString("US"), types.NewFloat(40)},
		{types.NewInt(5), types.NewString("EU"), types.Null()},
	}
	return FromTable("ORDERS", schema, rows)
}

func customersRelation() *Relation {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "NAME", Kind: types.KindString},
	)
	rows := []types.Row{
		{types.NewInt(1), types.NewString("ann")},
		{types.NewInt(2), types.NewString("bob")},
		{types.NewInt(3), types.NewString("cyd")},
	}
	return FromTable("CUSTOMERS", schema, rows)
}

func mustSelect(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparse.SelectStmt)
}

func execOn(t *testing.T, rel *Relation, sql string, par int) *Relation {
	t.Helper()
	out, err := ExecuteSelect(rel, mustSelect(t, sql), Options{Parallelism: par})
	if err != nil {
		t.Fatalf("ExecuteSelect(%q): %v", sql, err)
	}
	return out
}

func TestFilterAndProjection(t *testing.T) {
	out := execOn(t, ordersRelation(), "SELECT id, amount * 2 AS dbl FROM orders WHERE amount > 15", 1)
	if len(out.Rows) != 3 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	if out.Cols[1].Name != "DBL" {
		t.Errorf("alias: %q", out.Cols[1].Name)
	}
	if f, _ := out.Rows[0][1].AsFloat(); f != 40 {
		t.Errorf("projection value: %v", out.Rows[0][1])
	}
}

func TestStarProjection(t *testing.T) {
	out := execOn(t, ordersRelation(), "SELECT * FROM orders", 1)
	if len(out.Cols) != 3 || len(out.Rows) != 5 {
		t.Fatalf("star projection: %d cols, %d rows", len(out.Cols), len(out.Rows))
	}
}

func TestGroupByAggregates(t *testing.T) {
	out := execOn(t, ordersRelation(),
		"SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS avg_a, MIN(amount), MAX(amount) FROM orders GROUP BY region ORDER BY region", 1)
	if len(out.Rows) != 2 {
		t.Fatalf("groups = %d", len(out.Rows))
	}
	eu := out.Rows[0]
	if eu[0].AsString() != "EU" {
		t.Fatalf("first group %v", eu[0])
	}
	if n, _ := eu[1].AsInt(); n != 3 {
		t.Errorf("COUNT(*) EU = %d (NULL amount still counts the row)", n)
	}
	if s, _ := eu[2].AsFloat(); s != 40 {
		t.Errorf("SUM EU = %v", s)
	}
	if a, _ := eu[3].AsFloat(); a != 20 {
		t.Errorf("AVG EU = %v (NULLs excluded)", a)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	rel := &Relation{Cols: ordersRelation().Cols}
	out := execOn(t, rel, "SELECT COUNT(*), SUM(amount) FROM orders", 1)
	if len(out.Rows) != 1 {
		t.Fatalf("rows = %d", len(out.Rows))
	}
	if n, _ := out.Rows[0][0].AsInt(); n != 0 {
		t.Errorf("COUNT on empty = %v", n)
	}
	if !out.Rows[0][1].IsNull() {
		t.Errorf("SUM on empty should be NULL")
	}
}

func TestHaving(t *testing.T) {
	out := execOn(t, ordersRelation(),
		"SELECT region, SUM(amount) AS total FROM orders GROUP BY region HAVING SUM(amount) > 50", 1)
	if len(out.Rows) != 1 || out.Rows[0][0].AsString() != "US" {
		t.Fatalf("having result: %+v", out.Rows)
	}
}

func TestDistinctOrderByLimit(t *testing.T) {
	out := execOn(t, ordersRelation(), "SELECT DISTINCT region FROM orders ORDER BY region DESC", 1)
	if len(out.Rows) != 2 || out.Rows[0][0].AsString() != "US" {
		t.Fatalf("distinct/order: %+v", out.Rows)
	}
	out = execOn(t, ordersRelation(), "SELECT id FROM orders ORDER BY amount DESC LIMIT 2", 1)
	if len(out.Rows) != 2 {
		t.Fatalf("limit: %d", len(out.Rows))
	}
	if id, _ := out.Rows[0][0].AsInt(); id != 4 {
		t.Errorf("order by desc first id = %d", id)
	}
	out = execOn(t, ordersRelation(), "SELECT id FROM orders ORDER BY 1 DESC LIMIT 1 OFFSET 1", 1)
	if id, _ := out.Rows[0][0].AsInt(); id != 4 {
		t.Errorf("positional order by + offset: %d", id)
	}
}

func TestOrderByAliasAndExpression(t *testing.T) {
	out := execOn(t, ordersRelation(), "SELECT id, amount * -1 AS neg FROM orders WHERE amount IS NOT NULL ORDER BY neg", 1)
	if id, _ := out.Rows[0][0].AsInt(); id != 4 {
		t.Fatalf("order by alias: first id = %d", id)
	}
	out = execOn(t, ordersRelation(), "SELECT id FROM orders WHERE amount IS NOT NULL ORDER BY amount + id DESC", 1)
	if id, _ := out.Rows[0][0].AsInt(); id != 4 {
		t.Fatalf("order by input expression: first id = %d", id)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	queries := []string{
		"SELECT region, COUNT(*), SUM(amount) FROM orders GROUP BY region ORDER BY region",
		"SELECT id FROM orders WHERE amount >= 20 ORDER BY id",
		"SELECT COUNT(*) FROM orders WHERE region = 'EU'",
	}
	// Build a larger relation to force the parallel paths.
	base := ordersRelation()
	big := &Relation{Cols: base.Cols}
	for i := 0; i < 2000; i++ {
		for _, r := range base.Rows {
			row := r.Clone()
			row[0] = types.NewInt(int64(i*10) + row[0].Int)
			big.Rows = append(big.Rows, row)
		}
	}
	for _, q := range queries {
		seq := execOn(t, big, q, 1)
		par := execOn(t, big, q, 8)
		if len(seq.Rows) != len(par.Rows) {
			t.Fatalf("%q: %d vs %d rows", q, len(seq.Rows), len(par.Rows))
		}
		for i := range seq.Rows {
			for j := range seq.Rows[i] {
				if !types.Equal(seq.Rows[i][j], par.Rows[i][j]) && !(seq.Rows[i][j].IsNull() && par.Rows[i][j].IsNull()) {
					t.Fatalf("%q row %d col %d: %v vs %v", q, i, j, seq.Rows[i][j], par.Rows[i][j])
				}
			}
		}
	}
}

func TestJoinInnerAndLeft(t *testing.T) {
	sel := mustSelect(t, "SELECT o.id, c.name FROM orders o INNER JOIN customers c ON o.id = c.id ORDER BY o.id")
	joined, err := JoinAll([]*Relation{Requalify(ordersRelation(), "O"), Requalify(customersRelation(), "C")}, sel.From, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecuteSelect(joined, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("inner join rows = %d", len(out.Rows))
	}

	sel = mustSelect(t, "SELECT o.id, c.name FROM orders o LEFT JOIN customers c ON o.id = c.id ORDER BY o.id")
	joined, err = JoinAll([]*Relation{Requalify(ordersRelation(), "O"), Requalify(customersRelation(), "C")}, sel.From, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err = ExecuteSelect(joined, sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 5 {
		t.Fatalf("left join rows = %d", len(out.Rows))
	}
	if !out.Rows[4][1].IsNull() {
		t.Errorf("unmatched left row should have NULL name: %v", out.Rows[4][1])
	}
}

func TestHashJoinParallelMatchesSequential(t *testing.T) {
	left := ordersRelation()
	big := &Relation{Cols: left.Cols}
	for i := 0; i < 3000; i++ {
		for _, r := range left.Rows {
			row := r.Clone()
			row[0] = types.NewInt(int64(i%3) + 1)
			big.Rows = append(big.Rows, row)
		}
	}
	sel := mustSelect(t, "SELECT o.id, c.name FROM orders o INNER JOIN customers c ON o.id = c.id")
	seq, err := JoinAll([]*Relation{Requalify(big, "O"), Requalify(customersRelation(), "C")}, sel.From, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := JoinAll([]*Relation{Requalify(big, "O"), Requalify(customersRelation(), "C")}, sel.From, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("parallel join cardinality %d vs %d", len(par.Rows), len(seq.Rows))
	}
}

func TestCrossJoin(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM a, b")
	out, err := JoinAll([]*Relation{Requalify(customersRelation(), "A"), Requalify(customersRelation(), "B")}, sel.From, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 9 {
		t.Fatalf("cross join rows = %d", len(out.Rows))
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	empty, err := JoinAll(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecuteSelect(empty, mustSelect(t, "SELECT 1 + 1 AS two, UPPER('x') AS s"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].Int != 2 || out.Rows[0][1].Str != "X" {
		t.Fatalf("scalar select: %+v", out.Rows)
	}
}

func TestSchemaDerivation(t *testing.T) {
	rel := ordersRelation()
	s := rel.Schema()
	if s.Len() != 3 || s.Columns[0].Name != "ID" {
		t.Fatalf("schema: %v", s)
	}
	// Duplicate output names get disambiguated.
	dup := &Relation{Cols: append(append([]expr.InputColumn(nil), rel.Cols...), rel.Cols[0])}
	ds := dup.Schema()
	if ds.Columns[3].Name == ds.Columns[0].Name {
		t.Errorf("duplicate column names not disambiguated: %v", ds.Names())
	}
}

// TestProjectPlainMatchesRowProjection holds the bound, slab-backed projection
// to the row-at-a-time reference (projectRow, one Env.Eval per item per row)
// over every select-list shape binding treats differently: permutations,
// repeats, stars, qualified stars, aliases, expressions between bare columns,
// references that only resolve through a qualifier — and errors, which both
// must raise for the same statements, and only when there is a row to raise
// them on.
func TestProjectPlainMatchesRowProjection(t *testing.T) {
	joined, err := JoinAll([]*Relation{Requalify(ordersRelation(), "o"), Requalify(customersRelation(), "c")},
		mustSelect(t, "SELECT * FROM orders o JOIN customers c ON o.id = c.id").From, 1)
	if err != nil {
		t.Fatal(err)
	}
	empty := &Relation{Cols: ordersRelation().Cols}
	cases := []struct {
		rel *Relation
		sql string
	}{
		{ordersRelation(), "SELECT * FROM orders"},
		{ordersRelation(), "SELECT orders.* FROM orders"},
		{ordersRelation(), "SELECT amount, id, region FROM orders"},
		{ordersRelation(), "SELECT id, id, orders.id FROM orders"},
		{ordersRelation(), "SELECT id AS k, region r FROM orders"},
		{ordersRelation(), "SELECT id, amount * 2 AS dbl, region, id + 1, 'lit', NULL FROM orders"},
		{ordersRelation(), "SELECT *, id, orders.*, amount / 0 FROM orders"},
		{ordersRelation(), "SELECT UPPER(region), COALESCE(amount, -1), CASE WHEN amount > 15 THEN 'hi' ELSE 'lo' END FROM orders"},
		{ordersRelation(), "SELECT id FROM orders ORDER BY amount DESC"},
		{ordersRelation(), "SELECT region, amount FROM orders ORDER BY 2, id"},
		{ordersRelation(), "SELECT nosuch FROM orders"},
		{ordersRelation(), "SELECT id, other.id FROM orders"},
		{ordersRelation(), "SELECT id + nosuch FROM orders"},
		{empty, "SELECT nosuch, id FROM orders"},
		{empty, "SELECT * FROM orders ORDER BY id"},
		{joined, "SELECT * FROM orders o JOIN customers c ON o.id = c.id"},
		{joined, "SELECT c.*, o.amount FROM orders o JOIN customers c ON o.id = c.id"},
		{joined, "SELECT o.*, name, c.id, o.id FROM orders o JOIN customers c ON o.id = c.id"},
		{joined, "SELECT id FROM orders o JOIN customers c ON o.id = c.id"}, // ambiguous
		{joined, "SELECT name, region FROM orders o JOIN customers c ON o.id = c.id ORDER BY o.id DESC"},
	}
	for _, c := range cases {
		sel := mustSelect(t, c.sql)
		env := expr.NewEnv(c.rel.Cols)
		var want []types.Row
		var wantErr error
		for _, row := range c.rel.Rows {
			projected, err := projectRow(sel.Items, c.rel, env, row)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, projected)
		}
		got, keys, err := projectPlain(c.rel, sel)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, reference %v", c.sql, err, wantErr)
			continue
		}
		if err != nil {
			continue
		}
		wantKeys := 0
		if len(sel.OrderBy) > 0 {
			wantKeys = len(want)
		}
		if len(got.Rows) != len(want) || len(keys) != wantKeys {
			t.Errorf("%s: %d rows and %d sort keys, reference %d rows and %d keys", c.sql, len(got.Rows), len(keys), len(want), wantKeys)
			continue
		}
		for i := range want {
			if len(got.Rows[i]) != len(want[i]) || cap(got.Rows[i]) != len(want[i]) || len(got.Rows[i]) != len(got.Cols) {
				t.Errorf("%s: row %d has len %d cap %d for %d columns, reference %d", c.sql, i, len(got.Rows[i]), cap(got.Rows[i]), len(got.Cols), len(want[i]))
				break
			}
			for j := range want[i] {
				if got.Rows[i][j] != want[i][j] {
					t.Errorf("%s: row %d col %d = %#v, reference %#v", c.sql, i, j, got.Rows[i][j], want[i][j])
				}
			}
		}
	}
}
