package vexec

import (
	"fmt"
	"testing"

	"idaax/internal/colstore"
	"idaax/internal/types"
)

// TestHighCardinalityAggregateAllocs gates the member side of a
// high-cardinality GROUP BY: groups, accumulators, key values, key strings
// and output rows come from chunked slabs, so a 20 000-group aggregate stays
// under one allocation per group.
func TestHighCardinalityAggregateAllocs(t *testing.T) {
	const groups = 20000
	schema := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "S", Kind: types.KindString},
		types.Column{Name: "V", Kind: types.KindFloat},
	)
	tab := colstore.NewTable("T", schema, "")
	rows := make([]types.Row, 2*groups)
	for i := range rows {
		g := i % groups
		rows[i] = types.Row{types.NewInt(int64(g)), types.NewString(fmt.Sprint("s", g%7)), types.NewFloat(float64(i) * 0.5)}
	}
	if _, err := tab.Insert(1, rows); err != nil {
		t.Fatal(err)
	}
	vis := func(created, deleted int64) bool { return created == 1 && deleted == 0 }

	plan, ok := PlanQuery(mustParse(t, "SELECT k, s, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k, s"), tab.Schema())
	if !ok || !plan.Aggregated() {
		t.Fatal("grouped aggregate did not plan vectorized")
	}
	run := func() {
		rel, _, err := plan.Run(tab, 2, vis)
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Rows) != groups {
			t.Fatalf("%d groups, want %d", len(rel.Rows), groups)
		}
	}
	run()
	allocs := testing.AllocsPerRun(3, run)
	if perGroup := allocs / groups; perGroup >= 1 {
		t.Fatalf("%.0f allocations for %d groups: %.2f per group, want < 1", allocs, groups, perGroup)
	}
}
