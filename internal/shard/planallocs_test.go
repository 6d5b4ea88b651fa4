package shard

import (
	"fmt"
	"testing"

	"idaax/internal/accel"
	"idaax/internal/planner"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
	"idaax/internal/vexec"
)

// TestPointLookupPlanningAllocs gates the allocations of planning a point
// lookup's two statement shapes on a 3-member fleet and pushing their WHERE
// conjuncts into the members' vectorized scan. The bounds are the counts the
// shapes cost before WHERE conjuncts had one shared recognizer; recognizing a
// conjunct must not allocate.
func TestPointLookupPlanningAllocs(t *testing.T) {
	members := make([]*accel.Accelerator, 3)
	for i := range members {
		members[i] = accel.New(fmt.Sprintf("SHARD%d", i), 1)
	}
	router, err := NewRouter("FLEET", members)
	if err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(
		types.Column{Name: "CUSTOMER_ID", Kind: types.KindInt},
		types.Column{Name: "SEGMENT", Kind: types.KindString},
		types.Column{Name: "AGE", Kind: types.KindInt},
		types.Column{Name: "INCOME", Kind: types.KindFloat},
	)
	if err := router.CreateTable("CUSTOMERS", schema, "CUSTOMER_ID"); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 600)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("SMB"), types.NewInt(int64(20 + i%50)), types.NewFloat(float64(i))}
	}
	if _, err := router.Insert(1, "CUSTOMERS", rows); err != nil {
		t.Fatal(err)
	}
	router.CommitTxn(1)
	if _, err := router.Analyze("CUSTOMERS"); err != nil {
		t.Fatal(err)
	}
	cat := router.PlannerCatalog()
	for _, tc := range []struct {
		sql   string
		limit float64
	}{
		{"SELECT segment, age, income FROM customers WHERE customer_id = 7", 24},
		{"SELECT segment, age, income FROM customers WHERE customer_id >= 100 AND customer_id < 110", 49},
	} {
		st, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqlparse.SelectStmt)
		allocs := testing.AllocsPerRun(50, func() {
			pl := planner.PlanSelect(sel, cat)
			if _, ok := vexec.PlanQuery(pl.Sel, schema); !ok {
				t.Fatalf("%s: scan plan declined", tc.sql)
			}
		})
		t.Logf("%s: %v allocs", tc.sql, allocs)
		if allocs > tc.limit {
			t.Errorf("%s: %v allocs per plan, want <= %v", tc.sql, allocs, tc.limit)
		}
	}
}
