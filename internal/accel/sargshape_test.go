package accel

import (
	"os"
	"strings"
	"testing"

	"idaax/internal/colstore"
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

// TestSargShapes pins the row path's zone-map pushdown for every conjunct of
// the shared shape table.
func TestSargShapes(t *testing.T) {
	a := New("SHAPES", 1)
	if err := a.CreateTable("T", types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "X", Kind: types.KindInt},
		types.Column{Name: "S", Kind: types.KindString},
	), ""); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateTable("U", types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "Y", Kind: types.KindInt},
	), ""); err != nil {
		t.Fatal(err)
	}
	for _, row := range readSargShapes(t) {
		conj := row[0]
		sel := selectStmt(t, "SELECT * FROM t JOIN u ON t.id = u.id WHERE "+conj)
		var parts []string
		for _, item := range sel.From {
			tab, err := a.Table(item.Table)
			if err != nil {
				t.Fatal(err)
			}
			var preds []string
			for _, p := range a.pushdownPredicates(sel, item, tab) {
				preds = append(preds, tab.Schema().Columns[p.ColIdx].Name+cmpSpelling[p.Op]+p.Value.String())
			}
			if len(preds) == 0 {
				preds = []string{"-"}
			}
			parts = append(parts, strings.ToLower(item.Name())+":"+strings.Join(preds, " "))
		}
		if got, want := strings.Join(parts, " "), row[1]; got != want {
			t.Errorf("%s: accel = %q, want %q", conj, got, want)
		}
	}
}

// TestInListPrunesBlocksOnBothEngines checks that an IN list's [min, max]
// range prunes the same zone-map blocks on the vectorized scan as on the row
// path, and that both return the same rows.
func TestInListPrunesBlocksOnBothEngines(t *testing.T) {
	a := New("INPRUNE", 2)
	if err := a.CreateTable("T", types.NewSchema(types.Column{Name: "X", Kind: types.KindInt}), ""); err != nil {
		t.Fatal(err)
	}
	const blocks = 8
	rows := make([]types.Row, blocks*colstore.ZoneBlockSize)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	if _, err := a.Insert(1, "T", rows); err != nil {
		t.Fatal(err)
	}
	a.CommitTxn(1)
	sel := selectStmt(t, "SELECT * FROM t WHERE x IN (5, 7)")
	run := func(vectorized bool) (int, int64) {
		a.SetVectorizedExecution(vectorized)
		before := a.Stats().BlocksPruned
		rel, err := a.Query(0, sel)
		if err != nil {
			t.Fatal(err)
		}
		return len(rel.Rows), a.Stats().BlocksPruned - before
	}
	vecRows, vecPruned := run(true)
	rowRows, rowPruned := run(false)
	if vecRows != 2 || rowRows != 2 {
		t.Fatalf("rows: vectorized %d, row path %d, want 2", vecRows, rowRows)
	}
	if rowPruned != blocks-1 || vecPruned != rowPruned {
		t.Fatalf("blocks pruned: vectorized %d, row path %d, want %d", vecPruned, rowPruned, blocks-1)
	}
}
