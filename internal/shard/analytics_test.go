package shard

import (
	"testing"

	"idaax/internal/accel"
)

// TestCallShardLocalOrdinalOrder verifies the analytics seam's merge
// contract: merge runs once per shard, in ordinal order, never concurrently,
// and sees the partial that shard's fn produced.
func TestCallShardLocalOrdinalOrder(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", testRows(300))

	var merged []int
	var rows []int
	err := router.CallShardLocal(0, "T", "ordertest", nil,
		func(p *accel.ShardPartition) (any, error) {
			return p.Ordinal*1000 + len(p.Rows.Rows), nil
		},
		func(ordinal int, partial any) error {
			merged = append(merged, ordinal)
			rows = append(rows, partial.(int))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 {
		t.Fatalf("merge ran %d times, want 3", len(merged))
	}
	total := 0
	for i, ord := range merged {
		if ord != i {
			t.Fatalf("merge order %v not ordinal", merged)
		}
		if rows[i]/1000 != i {
			t.Fatalf("merge %d saw partial from shard %d", i, rows[i]/1000)
		}
		total += rows[i] % 1000
	}
	if total != 300 {
		t.Fatalf("shards presented %d rows in total, want 300", total)
	}
}
