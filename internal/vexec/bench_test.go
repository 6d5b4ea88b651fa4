package vexec

import (
	"testing"

	"idaax/internal/colstore"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// benchTables builds an orders-like fact table (an int key with 5 000
// distinct values, a 4-value dictionary column, a float measure) and a
// 5 000-row dimension keyed by the same int, both committed by one bulk
// insert, so the visibility check runs once per batch.
func benchTables(b *testing.B) (fact, dim *colstore.Table, vis colstore.Visibility) {
	b.Helper()
	const rows, keys = 200000, 5000
	fact = colstore.NewTable("O", types.NewSchema(
		types.Column{Name: "CUSTOMER_ID", Kind: types.KindInt},
		types.Column{Name: "REGION", Kind: types.KindString},
		types.Column{Name: "AMOUNT", Kind: types.KindFloat},
	), "")
	regions := []string{"EU", "US", "APAC", "LATAM"}
	batch := make([]types.Row, rows)
	for i := range batch {
		batch[i] = types.Row{
			types.NewInt(int64((i * 7919) % keys)),
			types.NewString(regions[i%len(regions)]),
			types.NewFloat(float64(i%1000) * 0.5),
		}
	}
	if _, err := fact.Insert(1, batch); err != nil {
		b.Fatal(err)
	}
	dim = colstore.NewTable("C", types.NewSchema(
		types.Column{Name: "CUSTOMER_ID", Kind: types.KindInt},
		types.Column{Name: "SEGMENT", Kind: types.KindString},
	), "")
	segments := []string{"retail", "smb", "enterprise", "public", "partner"}
	batch = make([]types.Row, keys)
	for i := range batch {
		batch[i] = types.Row{types.NewInt(int64(i)), types.NewString(segments[i%len(segments)])}
	}
	if _, err := dim.Insert(1, batch); err != nil {
		b.Fatal(err)
	}
	return fact, dim, func(created, deleted int64) bool { return created == 1 && deleted == 0 }
}

// BenchmarkAggregate runs a single-table aggregate per GROUP BY key shape:
// none (one group), a dictionary column, an int column, and two columns (the
// encoded-key path).
func BenchmarkAggregate(b *testing.B) {
	fact, _, vis := benchTables(b)
	for _, c := range []struct{ name, sql string }{
		{"none", "SELECT COUNT(*), SUM(amount) FROM o WHERE amount > 10"},
		{"dictionary", "SELECT region, COUNT(*), SUM(amount) FROM o GROUP BY region"},
		{"int", "SELECT customer_id, SUM(amount) FROM o GROUP BY customer_id"},
		{"multi-column", "SELECT customer_id, region, SUM(amount) FROM o GROUP BY customer_id, region"},
	} {
		b.Run(c.name, func(b *testing.B) {
			plan, ok := PlanQuery(mustParse(b, c.sql), fact.Schema())
			if !ok || !plan.Aggregated() {
				b.Fatalf("%s did not plan vectorized", c.sql)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Run(fact, 1, vis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinAggregate runs an int-keyed join aggregate per GROUP BY key
// shape: none, a probe-side dictionary column, a probe-side int column, a
// probe-side and a build-side column (the encoded-key path), and a build-side
// column (grouped by build slot).
func BenchmarkJoinAggregate(b *testing.B) {
	fact, dim, vis := benchTables(b)
	const from = " FROM o JOIN c ON o.customer_id = c.customer_id"
	for _, c := range []struct{ name, sql string }{
		{"none", "SELECT COUNT(*), SUM(o.amount)" + from},
		{"dictionary", "SELECT o.region, COUNT(*)" + from + " GROUP BY o.region"},
		{"int", "SELECT o.customer_id, SUM(o.amount)" + from + " GROUP BY o.customer_id"},
		{"multi-column", "SELECT o.region, c.segment, COUNT(*)" + from + " GROUP BY o.region, c.segment"},
		{"build-side", "SELECT c.segment, COUNT(*), SUM(o.amount)" + from + " GROUP BY c.segment"},
	} {
		b.Run(c.name, func(b *testing.B) {
			plan, ok := PlanJoin(mustParse(b, c.sql), fact.Schema(), dim.Schema(), relalg.MethodAuto)
			if !ok || !plan.Aggregated() {
				b.Fatalf("%s did not plan as a join aggregate", c.sql)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := plan.Run(fact, dim, 1, vis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
