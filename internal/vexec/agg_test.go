package vexec

import (
	"fmt"
	"testing"

	"idaax/internal/colstore"
	"idaax/internal/relalg"
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

	for _, q := range []string{
		"SELECT k, s, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k, s", // encoded keys
		"SELECT k, COUNT(*), SUM(v), MIN(s) FROM t GROUP BY k",       // int index
	} {
		plan, ok := PlanQuery(mustParse(t, q), tab.Schema())
		if !ok || !plan.Aggregated() {
			t.Fatalf("%s did not plan vectorized", q)
		}
		run := func() {
			rel, _, err := plan.Run(tab, 2, vis)
			if err != nil {
				t.Fatal(err)
			}
			if len(rel.Rows) != groups {
				t.Fatalf("%s: %d groups, want %d", q, len(rel.Rows), groups)
			}
		}
		run()
		allocs := testing.AllocsPerRun(3, run)
		if perGroup := allocs / groups; perGroup >= 1 {
			t.Fatalf("%s: %.0f allocations for %d groups: %.2f per group, want < 1", q, allocs, groups, perGroup)
		}
	}
}

// residualTables builds a 20 000-row table O and a 500-row table C that
// join on K, one C row per O row.
func residualTables(t *testing.T) (o, c *colstore.Table, vis colstore.Visibility) {
	t.Helper()
	const rows, keys = 20000, 500
	o = colstore.NewTable("O", types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindFloat},
	), "")
	c = colstore.NewTable("C", types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "B", Kind: types.KindFloat},
	), "")
	batch := make([]types.Row, rows)
	for i := range batch {
		batch[i] = types.Row{types.NewInt(int64(i % keys)), types.NewFloat(float64(i%100) - 40)}
	}
	if _, err := o.Insert(1, batch); err != nil {
		t.Fatal(err)
	}
	batch = make([]types.Row, keys)
	for i := range batch {
		batch[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i % 7))}
	}
	if _, err := c.Insert(1, batch); err != nil {
		t.Fatal(err)
	}
	return o, c, func(created, deleted int64) bool { return created == 1 && deleted == 0 }
}

// TestResidualJoinAggregateAllocs gates the residual path of a join
// aggregate: every joined pair is evaluated against the WHERE residual in one
// reused row per worker, so allocations do not grow with the pairs.
func TestResidualJoinAggregateAllocs(t *testing.T) {
	o, c, vis := residualTables(t)
	sel := mustParse(t, "SELECT COUNT(*), SUM(o.a) FROM o JOIN c ON o.k = c.k WHERE o.a + c.b > 0")
	plan, ok := PlanJoin(sel, o.Schema(), c.Schema(), relalg.MethodAuto)
	if !ok || !plan.Aggregated() || plan.residual == nil {
		t.Fatal("residual join aggregate did not plan in the probe")
	}
	run := func() {
		if _, _, err := plan.Run(o, c, 2, vis); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if perPair := testing.AllocsPerRun(3, run) / float64(o.VersionCount()); perPair >= 0.1 {
		t.Fatalf("%.2f allocations per joined pair, want < 0.1", perPair)
	}
}

// TestResidualMaterializeAllocs gates the residual path of the plans that
// materialize rows, the filter and the join: a candidate is evaluated in one
// reused row per worker and only a kept row is copied out, so a residual that
// rejects all 20 000 candidates allocates per batch, not per candidate.
func TestResidualMaterializeAllocs(t *testing.T) {
	o, c, vis := residualTables(t)
	filter, ok := PlanQuery(mustParse(t, "SELECT * FROM o WHERE a + 0 > 1000"), o.Schema())
	if !ok || filter.Aggregated() || filter.residual == nil {
		t.Fatal("residual filter did not plan")
	}
	join, ok := PlanJoin(mustParse(t, "SELECT o.k FROM o JOIN c ON o.k = c.k WHERE o.a + c.b > 1000"), o.Schema(), c.Schema(), relalg.MethodAuto)
	if !ok || join.Aggregated() || join.residual == nil {
		t.Fatal("residual join did not plan in the probe")
	}
	for _, tc := range []struct {
		name string
		run  func() (*relalg.Relation, error)
	}{
		{"filter", func() (*relalg.Relation, error) { rel, _, err := filter.Run(o, 2, vis); return rel, err }},
		{"join", func() (*relalg.Relation, error) { rel, _, err := join.Run(o, c, 2, vis); return rel, err }},
	} {
		run := func() {
			rel, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rel.Rows) != 0 {
				t.Fatalf("%s: %d rows kept, want 0", tc.name, len(rel.Rows))
			}
		}
		run()
		candidates := float64(o.VersionCount())
		allocs := testing.AllocsPerRun(3, run)
		t.Logf("%s: %.0f allocations for %.0f rejected candidates", tc.name, allocs, candidates)
		if allocs/candidates >= 0.01 {
			t.Errorf("%s: %.0f allocations for %.0f rejected candidates, want < 1 per 100", tc.name, allocs, candidates)
		}
	}
}
