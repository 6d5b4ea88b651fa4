package relalg

import (
	"fmt"
	"testing"

	"idaax/internal/expr"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// BenchmarkGroupByHighCardinality pins the allocation behaviour of the row
// engine's grouping path: the group key is built into a reused []byte buffer,
// not by per-value string concatenation. With ~N/2 distinct groups over two
// key columns, the concatenating implementation allocated several strings per
// input row; the append implementation allocates only when a new group is
// first seen. Run with -benchmem to compare allocs/op after changes here.
func BenchmarkGroupByHighCardinality(b *testing.B) {
	const n = 50000
	rel := &Relation{Cols: []expr.InputColumn{
		{Name: "ID", Kind: types.KindInt},
		{Name: "TAG", Kind: types.KindString},
		{Name: "V", Kind: types.KindFloat},
	}}
	rel.Rows = make([]types.Row, n)
	for i := 0; i < n; i++ {
		rel.Rows[i] = types.Row{
			types.NewInt(int64(i / 2)),
			types.NewString(fmt.Sprintf("tag-%d", i%7)),
			types.NewFloat(float64(i) * 0.5),
		}
	}
	sel, err := sqlparse.Parse("SELECT id, tag, COUNT(*), SUM(v) FROM t GROUP BY id, tag")
	if err != nil {
		b.Fatal(err)
	}
	stmt := sel.(*sqlparse.SelectStmt)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ExecuteSelect(rel, stmt, Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Rows) == 0 {
			b.Fatal("no groups produced")
		}
	}
}

// BenchmarkDistinctKeys pins the same buffer-reuse behaviour for DISTINCT.
func BenchmarkDistinctKeys(b *testing.B) {
	const n = 50000
	rel := &Relation{Cols: []expr.InputColumn{
		{Name: "A", Kind: types.KindInt},
		{Name: "S", Kind: types.KindString},
	}}
	rel.Rows = make([]types.Row, n)
	for i := 0; i < n; i++ {
		rel.Rows[i] = types.Row{
			types.NewInt(int64(i % 1000)),
			types.NewString(fmt.Sprintf("s%d", i%50)),
		}
	}
	sel, err := sqlparse.Parse("SELECT DISTINCT a, s FROM t")
	if err != nil {
		b.Fatal(err)
	}
	stmt := sel.(*sqlparse.SelectStmt)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ExecuteSelect(rel, stmt, Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Rows) != 1000 {
			b.Fatalf("got %d distinct rows", len(out.Rows))
		}
	}
}

// BenchmarkProjectPlain pins the plain projection: the select list is bound to
// column indices once, and all output rows come out of one slab — a handful of
// allocations per statement, not one per row plus a map lookup per cell.
func BenchmarkProjectPlain(b *testing.B) {
	const n = 10000
	rel := &Relation{Cols: []expr.InputColumn{
		{Qualifier: "T", Name: "ID", Kind: types.KindInt},
		{Qualifier: "T", Name: "TAG", Kind: types.KindString},
		{Qualifier: "T", Name: "V", Kind: types.KindFloat},
		{Qualifier: "T", Name: "QTY", Kind: types.KindInt},
	}}
	rel.Rows = make([]types.Row, n)
	for i := range rel.Rows {
		rel.Rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("tag-%d", i%7)), types.NewFloat(float64(i) * 0.5), types.NewInt(int64(i % 9))}
	}
	for _, sql := range []string{"SELECT qty, id, tag, v FROM t", "SELECT id, v * 2, tag FROM t"} {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sql, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := projectPlain(rel, st.(*sqlparse.SelectStmt)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
