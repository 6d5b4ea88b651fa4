package vexec

import (
	"os"
	"strings"
	"testing"

	"idaax/internal/colstore"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// readSargShapes reads the shape table every consumer of a WHERE conjunct
// checks its decisions against: one row per conjunct, columns split on "|".
func readSargShapes(t *testing.T) [][]string {
	t.Helper()
	data, err := os.ReadFile("../sqlparse/testdata/sarg_shapes.txt")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "|")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		if len(cols) != 7 {
			t.Fatalf("shape row %q has %d columns, want 7", line, len(cols))
		}
		rows = append(rows, cols)
	}
	return rows
}

var cmpSpelling = map[colstore.CompareOp]string{
	colstore.CmpEq: "=", colstore.CmpNe: "<>", colstore.CmpLt: "<",
	colstore.CmpLe: "<=", colstore.CmpGt: ">", colstore.CmpGe: ">=",
}

// renderPushed spells scan predicates and null checks over schema as
// "X>=3 X<=7 X:null", or "-" when there are none.
func renderPushed(schema types.Schema, preds []colstore.SimplePredicate, checks []nullCheck) string {
	var parts []string
	for _, p := range preds {
		parts = append(parts, schema.Columns[p.ColIdx].Name+cmpSpelling[p.Op]+p.Value.String())
	}
	for _, c := range checks {
		if c.wantNull {
			parts = append(parts, schema.Columns[c.colIdx].Name+":null")
		} else {
			parts = append(parts, schema.Columns[c.colIdx].Name+":notnull")
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

func residualMark(e sqlparse.Expr) string {
	if e != nil {
		return " +res"
	}
	return ""
}

// TestSargShapes pins the vectorized scan's and the vectorized join's
// decision for every conjunct of the shared shape table.
func TestSargShapes(t *testing.T) {
	tSchema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "X", Kind: types.KindInt},
		types.Column{Name: "S", Kind: types.KindString},
	)
	uSchema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "Y", Kind: types.KindInt},
	)
	parse := func(sql string) *sqlparse.SelectStmt {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		return st.(*sqlparse.SelectStmt)
	}
	join := func(jt, conj string) string {
		jp, ok := PlanJoin(parse("SELECT * FROM t "+jt+" u ON t.id = u.id WHERE "+conj), tSchema, uSchema, relalg.MethodAuto)
		if !ok {
			return "declined"
		}
		return "t:" + renderPushed(tSchema, jp.left.preds, jp.left.nullChecks) +
			" u:" + renderPushed(uSchema, jp.right.preds, jp.right.nullChecks) + residualMark(jp.residual)
	}
	for _, row := range readSargShapes(t) {
		conj := row[0]
		p, ok := PlanQuery(parse("SELECT * FROM t WHERE "+conj), tSchema)
		if !ok {
			t.Fatalf("%s: scan plan declined", conj)
		}
		got := []string{
			renderPushed(tSchema, p.preds, p.nullChecks) + residualMark(p.residual),
			join("JOIN", conj),
			join("LEFT JOIN", conj),
		}
		for i, name := range []string{"scan", "inner", "left"} {
			if want := row[2+i]; got[i] != want {
				t.Errorf("%s: %s = %q, want %q", conj, name, got[i], want)
			}
		}
	}
}
