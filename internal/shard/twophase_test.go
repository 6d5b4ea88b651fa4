package shard

import (
	"testing"

	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// topKPartials builds the partials of a sharded top-k statement: groups
// customer ids spread over three members (hash-distributed on the grouping
// key, so each group lives in one partial), each with a partial SUM.
func topKPartials(groups int) []*relalg.Relation {
	cols := []expr.InputColumn{{Name: "__G0", Kind: types.KindInt}, {Name: "__A1", Kind: types.KindFloat}}
	parts := make([]*relalg.Relation, 3)
	for i := range parts {
		parts[i] = &relalg.Relation{Cols: cols}
	}
	for g := 0; g < groups; g++ {
		p := parts[g%3]
		p.Rows = append(p.Rows, types.Row{types.NewInt(int64(g)), types.NewFloat(float64(g%997) * 1.25)})
	}
	return parts
}

func mergeAndFinish(parts []*relalg.Relation, plan *twoPhasePlan) (*relalg.Relation, error) {
	merged, err := mergePartials(parts, plan.merge)
	if err != nil {
		return nil, err
	}
	return relalg.ExecuteSelect(merged, plan.finalSel, relalg.Options{Parallelism: 2})
}

func topKPlan(tb testing.TB) *twoPhasePlan {
	tb.Helper()
	st, err := sqlparse.Parse("SELECT customer_id, SUM(amount) AS total FROM orders GROUP BY customer_id ORDER BY total DESC LIMIT 10")
	if err != nil {
		tb.Fatal(err)
	}
	plan, ok := planTwoPhase(st.(*sqlparse.SelectStmt))
	if !ok {
		tb.Fatal("top-k statement did not plan two-phase")
	}
	return plan
}

// TestTwoPhaseFinalSelectIsPlain pins that finalisation never re-aggregates:
// every aggregate, HAVING and ORDER BY of the original statement becomes an
// expression over the merged columns, so the final statement takes relalg's
// plain projection path.
func TestTwoPhaseFinalSelectIsPlain(t *testing.T) {
	for _, sql := range []string{
		"SELECT dept, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY dept",
		"SELECT dept FROM t GROUP BY dept HAVING AVG(v) > 1 ORDER BY SUM(v) DESC LIMIT 2",
		"SELECT COUNT(*) FROM t HAVING MAX(v) > 0",
		"SELECT DISTINCT MAX(id) - MIN(id) AS spread FROM t GROUP BY dept ORDER BY spread",
	} {
		plan, ok := planTwoPhase(parseSelect(t, sql))
		if !ok {
			t.Fatalf("%s: not planned two-phase", sql)
		}
		if relalg.NeedsAggregation(plan.finalSel) {
			t.Errorf("%s: final statement still aggregates", sql)
		}
		if got, want := len(plan.merge.fns)+plan.merge.groups, len(plan.shardSel.Items); got != want {
			t.Errorf("%s: merge spec covers %d columns, the shard statement has %d", sql, got, want)
		}
	}
}

// TestTwoPhaseMergeAllocs gates the coordinator half of a high-cardinality
// two-phase statement: merging 20 000 groups from three partials and running
// the final top-k select costs at most two allocations per group.
func TestTwoPhaseMergeAllocs(t *testing.T) {
	const groups = 20000
	plan := topKPlan(t)
	parts := topKPartials(groups)
	rel, err := mergeAndFinish(parts, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 10 || rel.Rows[0][1].Float != 996*1.25 {
		t.Fatalf("top-k result: %v", rel.Rows)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := mergeAndFinish(parts, plan); err != nil {
			t.Fatal(err)
		}
	})
	if perGroup := allocs / groups; perGroup > 2 {
		t.Fatalf("merge + final select: %.0f allocations, %.2f per group (want <= 2)", allocs, perGroup)
	}
}

// BenchmarkTwoPhaseMerge measures the coordinator half of the analytic top-k
// class: 20 000 groups over three partials merged, then ORDER BY ... LIMIT 10.
func BenchmarkTwoPhaseMerge(b *testing.B) {
	plan := topKPlan(b)
	parts := topKPartials(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mergeAndFinish(parts, plan); err != nil {
			b.Fatal(err)
		}
	}
}
