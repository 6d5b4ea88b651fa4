package shard

import (
	"fmt"
	"testing"

	"idaax/internal/accel"
	"idaax/internal/types"
)

func ordersSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "OID", Kind: types.KindInt},
		types.Column{Name: "CUSTOMER_ID", Kind: types.KindInt},
		types.Column{Name: "AMOUNT", Kind: types.KindFloat},
		types.Column{Name: "REGION", Kind: types.KindString},
	)
}

func customersSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "NAME", Kind: types.KindString},
		types.Column{Name: "SEGMENT", Kind: types.KindString},
	)
}

func regionsSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "REGION", Kind: types.KindString},
		types.Column{Name: "FACTOR", Kind: types.KindFloat},
	)
}

func ordersRows(n int) []types.Row {
	regions := []string{"EU", "US", "APAC"}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		cust := types.NewInt(int64(i % 97))
		if i%41 == 0 {
			cust = types.Null() // NULL join keys must never match on any plan
		}
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			cust,
			types.NewFloat(float64(i%13) * 0.25),
			types.NewString(regions[i%len(regions)]),
		}
	}
	return rows
}

func customersRows() []types.Row {
	segments := []string{"SMB", "ENT", "GOV"}
	rows := make([]types.Row, 97)
	for i := 0; i < 97; i++ {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("C%03d", i)),
			types.NewString(segments[i%len(segments)]),
		}
	}
	return rows
}

func regionsRows() []types.Row {
	return []types.Row{
		{types.NewString("EU"), types.NewFloat(1.5)},
		{types.NewString("US"), types.NewFloat(2.0)},
		{types.NewString("APAC"), types.NewFloat(0.5)},
	}
}

// newJoinFleet builds a router over `shards` accelerators plus a reference
// accelerator, both loaded with ORDERS (hash on CUSTOMER_ID), CUSTOMERS
// (hash on ID — co-located with ORDERS) and REGIONS (round robin — the
// broadcast candidate).
func newJoinFleet(t *testing.T, shards int) (*Router, *accel.Accelerator) {
	t.Helper()
	members := make([]*accel.Accelerator, shards)
	for i := range members {
		members[i] = accel.New(fmt.Sprintf("SHARD%d", i), 2)
	}
	router, err := NewRouter("FLEET", members)
	if err != nil {
		t.Fatal(err)
	}
	ref := accel.New("REF", 2)

	load := func(name string, schema types.Schema, distKey string, rows []types.Row) {
		if err := router.CreateTable(name, schema, distKey); err != nil {
			t.Fatal(err)
		}
		if _, err := router.Insert(1, name, rows); err != nil {
			t.Fatal(err)
		}
		if err := ref.CreateTable(name, schema, distKey); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Insert(1, name, rows); err != nil {
			t.Fatal(err)
		}
	}
	load("ORDERS", ordersSchema(), "CUSTOMER_ID", ordersRows(600))
	load("CUSTOMERS", customersSchema(), "ID", customersRows())
	load("REGIONS", regionsSchema(), "", regionsRows())
	router.CommitTxn(1)
	ref.CommitTxn(1)
	return router, ref
}

// joinCases is the differential suite exercising every shard plan: co-located
// two- and three-way joins, broadcast joins, gather fallbacks (LEFT JOIN),
// and IN-list/range pruning — each must be byte-identical to the
// single-accelerator execution modulo ordering.
var joinCases = []struct {
	sql     string
	ordered bool
}{
	// Co-located: both sides hash-distributed on the join key.
	{"SELECT o.oid, c.name FROM orders o JOIN customers c ON o.customer_id = c.id ORDER BY o.oid", true},
	{"SELECT o.oid, c.name FROM orders o, customers c WHERE o.customer_id = c.id AND o.amount > 1 ORDER BY o.oid", true},
	{"SELECT c.segment, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c ON o.customer_id = c.id GROUP BY c.segment ORDER BY c.segment", true},
	{"SELECT c.segment, AVG(o.amount) FROM orders o JOIN customers c ON o.customer_id = c.id WHERE o.region = 'EU' GROUP BY c.segment ORDER BY c.segment", true},
	// Broadcast: REGIONS is round robin, joined on a non-key column.
	{"SELECT o.oid, r.factor FROM orders o JOIN regions r ON o.region = r.region ORDER BY o.oid LIMIT 50", true},
	{"SELECT r.region, SUM(o.amount * r.factor) FROM orders o JOIN regions r ON o.region = r.region GROUP BY r.region ORDER BY r.region", true},
	// Three-way: co-located pair plus a broadcast table.
	{"SELECT c.segment, r.region, COUNT(*) FROM orders o JOIN customers c ON o.customer_id = c.id JOIN regions r ON o.region = r.region GROUP BY c.segment, r.region ORDER BY c.segment, r.region", true},
	// Gather fallback: LEFT JOIN keeps its semantics.
	{"SELECT c.id, COUNT(o.oid) FROM customers c LEFT JOIN orders o ON c.id = o.customer_id GROUP BY c.id ORDER BY c.id", true},
	// Pruning shapes on the distribution key.
	{"SELECT * FROM orders WHERE customer_id = 11 ORDER BY oid", true},
	{"SELECT COUNT(*), SUM(amount) FROM orders WHERE customer_id IN (3, 17, 42)", true},
	{"SELECT COUNT(*) FROM orders WHERE customer_id BETWEEN 10 AND 12", true},
	{"SELECT COUNT(*) FROM orders WHERE customer_id >= 90 AND customer_id < 93", true},
	{"SELECT COUNT(*) FROM orders WHERE customer_id = 5 AND customer_id = 80", true},
	// Pruned co-located join: the key predicate restricts every table.
	{"SELECT o.oid, c.name FROM orders o JOIN customers c ON o.customer_id = c.id WHERE o.customer_id IN (7, 8) ORDER BY o.oid", true},
}

func TestPlannedJoinsDifferential(t *testing.T) {
	router, ref := newJoinFleet(t, 3)
	for _, tc := range joinCases {
		got, err := router.Query(0, parseSelect(t, tc.sql))
		if err != nil {
			t.Fatalf("sharded %q: %v", tc.sql, err)
		}
		want, err := ref.Query(0, parseSelect(t, tc.sql))
		if err != nil {
			t.Fatalf("reference %q: %v", tc.sql, err)
		}
		assertSameResult(t, tc.sql, got, want, tc.ordered)
	}
	st := router.ShardingStats()
	if st.ColocatedJoins == 0 {
		t.Fatalf("no co-located joins recorded: %+v", st)
	}
	if st.BroadcastJoins == 0 {
		t.Fatalf("no broadcast joins recorded: %+v", st)
	}
	if st.ShardScansAvoided == 0 {
		t.Fatalf("no shard scans avoided: %+v", st)
	}
}

// TestFromlessSelectDifferential covers the statements the planner has
// nothing to plan for: a SELECT without FROM is evaluated at the coordinator
// and must match the single accelerator without touching any shard.
func TestFromlessSelectDifferential(t *testing.T) {
	router, ref := newJoinFleet(t, 3)
	before := router.ShardingStats()
	for _, sql := range []string{
		"SELECT 1 + 2, 'x'",
		"SELECT 7 * 6 AS answer, NULL, 2.5 / 2",
		"SELECT CASE WHEN 1 < 2 THEN 'lt' ELSE 'ge' END",
	} {
		got, err := router.Query(0, parseSelect(t, sql))
		if err != nil {
			t.Fatalf("sharded %q: %v", sql, err)
		}
		want, err := ref.Query(0, parseSelect(t, sql))
		if err != nil {
			t.Fatalf("reference %q: %v", sql, err)
		}
		assertSameResult(t, sql, got, want, true)
	}
	if after := router.ShardingStats(); after.RowsGathered != before.RowsGathered {
		t.Fatalf("FROM-less SELECTs gathered %d rows", after.RowsGathered-before.RowsGathered)
	}
}

// TestColocatedJoinStaysShardLocal asserts the headline property: a join on
// the shared distribution key gathers no base rows — only per-shard join
// results (or aggregate partials) reach the coordinator.
func TestColocatedJoinStaysShardLocal(t *testing.T) {
	router, _ := newJoinFleet(t, 3)
	before := router.ShardingStats()
	sql := "SELECT c.segment, COUNT(*) FROM orders o JOIN customers c ON o.customer_id = c.id GROUP BY c.segment ORDER BY c.segment"
	rel, err := router.Query(0, parseSelect(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 3 {
		t.Fatalf("expected 3 segments, got %d", len(rel.Rows))
	}
	after := router.ShardingStats()
	if after.ColocatedJoins != before.ColocatedJoins+1 {
		t.Fatalf("co-located join not recorded: %+v", after)
	}
	if after.TwoPhaseAggregates != before.TwoPhaseAggregates+1 {
		t.Fatalf("expected the grouped co-located join to run two-phase: %+v", after)
	}
	// Two-phase over 3 shards with 3 groups each: at most 9 partial rows
	// travel, far below the ~600 base rows a gather would ship.
	moved := after.RowsGathered - before.RowsGathered
	if moved > 9 {
		t.Fatalf("co-located aggregation moved %d rows; base rows appear to have been gathered", moved)
	}
}

// TestPruningShardCounts asserts the pruned shard counts surface in the
// router stats: an IN-list over two key values touches at most two shards.
func TestPruningShardCounts(t *testing.T) {
	router, _ := newJoinFleet(t, 3)
	memberQueries := func() []int64 {
		out := make([]int64, len(router.members))
		for i, st := range router.GroupStats().Shards {
			out[i] = st.QueriesRun
		}
		return out
	}

	before := memberQueries()
	beforeStats := router.ShardingStats()
	if _, err := router.Query(0, parseSelect(t, "SELECT COUNT(*) FROM orders WHERE customer_id IN (3, 17)")); err != nil {
		t.Fatal(err)
	}
	after := memberQueries()
	touched := 0
	for i := range after {
		if after[i] > before[i] {
			touched++
		}
	}
	if touched > 2 {
		t.Fatalf("IN-list over 2 keys touched %d of 3 shards", touched)
	}
	afterStats := router.ShardingStats()
	if afterStats.ShardScansAvoided <= beforeStats.ShardScansAvoided {
		t.Fatalf("ShardScansAvoided did not grow: %+v -> %+v", beforeStats, afterStats)
	}

	// Equality pruning routes the full statement to one shard.
	before = memberQueries()
	beforePruned := router.ShardingStats().QueriesPruned
	if _, err := router.Query(0, parseSelect(t, "SELECT COUNT(*) FROM orders WHERE customer_id = 42")); err != nil {
		t.Fatal(err)
	}
	after = memberQueries()
	touched = 0
	for i := range after {
		if after[i] > before[i] {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("equality pruning touched %d shards, want 1", touched)
	}
	if router.ShardingStats().QueriesPruned != beforePruned+1 {
		t.Fatal("QueriesPruned not incremented")
	}
}

// TestAnalyzeImprovesPlannerInputs exercises ANALYZE on the router and the
// merged statistics snapshot.
func TestAnalyzeImprovesPlannerInputs(t *testing.T) {
	router, _ := newJoinFleet(t, 3)
	n, err := router.Analyze("ORDERS")
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Fatalf("analyzed %d rows, want 600", n)
	}
	snap, err := router.TableStatistics("ORDERS")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rows != 600 {
		t.Fatalf("merged rows = %d", snap.Rows)
	}
	oid := snap.Column("OID")
	if oid == nil {
		t.Fatal("no OID stats")
	}
	if got, _ := oid.Min.AsInt(); got != 0 {
		t.Fatalf("merged min = %v", oid.Min)
	}
	if got, _ := oid.Max.AsInt(); got != 599 {
		t.Fatalf("merged max = %v", oid.Max)
	}
}
