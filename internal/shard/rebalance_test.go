package shard

import (
	"fmt"
	"strings"
	"testing"

	"idaax/internal/accel"
	"idaax/internal/types"
)

// TestHRWMinimalMovement verifies the defining property of rendezvous
// hashing: growing the owner set by one member moves roughly 1/N of the keys
// — every moved key moves TO the new member — and removing a member moves
// only that member's keys.
func TestHRWMinimalMovement(t *testing.T) {
	names3 := []string{"A", "B", "C"}
	names4 := []string{"A", "B", "C", "D"}
	p3 := NewHashPartitioner(0, types.KindInt, names3)
	p4 := NewHashPartitioner(0, types.KindInt, names4)

	const keys = 10000
	moved := 0
	newOwner := 0
	for i := 0; i < keys; i++ {
		v := types.NewInt(int64(i))
		s3, _ := p3.PlaceKey(v)
		s4, _ := p4.PlaceKey(v)
		if s4 == 3 {
			newOwner++
		}
		if s3 != s4 {
			moved++
			if s4 != 3 {
				t.Fatalf("key %d moved from shard %d to %d, not to the new member", i, s3, s4)
			}
		}
	}
	if moved != newOwner {
		t.Fatalf("moved %d keys but new member owns %d", moved, newOwner)
	}
	// Expected share is 1/4; allow generous slack around the binomial spread.
	if newOwner < keys/5 || newOwner > keys/3 {
		t.Fatalf("new member owns %d of %d keys; rendezvous distribution degenerate", newOwner, keys)
	}

	// Removing C moves exactly C's keys, each to a surviving member.
	pAB := NewHashPartitioner(0, types.KindInt, []string{"A", "B"})
	for i := 0; i < keys; i++ {
		v := types.NewInt(int64(i))
		s3, _ := p3.PlaceKey(v)
		s2, _ := pAB.PlaceKey(v)
		if s3 != 2 && s2 != s3 {
			t.Fatalf("key %d owned by shard %d moved to %d although its owner survived", i, s3, s2)
		}
	}
}

// TestHRWOrdinalMapping checks that a partitioner built with explicit
// ordinals (the drain configuration) places onto the surviving router
// ordinals only.
func TestHRWOrdinalMapping(t *testing.T) {
	// Members [A, B, C] with B draining: owners are A (ordinal 0) and C
	// (ordinal 2).
	p := NewHashPartitionerOrdinals(0, types.KindInt, []string{"A", "C"}, []int{0, 2})
	for i := 0; i < 1000; i++ {
		s, ok := p.PlaceKey(types.NewInt(int64(i)))
		if !ok || (s != 0 && s != 2) {
			t.Fatalf("key %d placed on ordinal %d; draining member must receive nothing", i, s)
		}
	}
	rr := NewRoundRobinPartitionerOrdinals([]string{"A", "C"}, []int{0, 2})
	for i := 0; i < 10; i++ {
		if s := rr.Place(nil); s != 0 && s != 2 {
			t.Fatalf("round robin placed on draining ordinal %d", s)
		}
	}
}

// shardRowCounts returns the committed-visible rows of table T per member.
func shardRowCounts(t *testing.T, router *Router, table string) []int {
	t.Helper()
	ms := router.Members()
	out := make([]int, len(ms))
	for i, m := range ms {
		n, err := m.RowCount(0, table)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = n
	}
	return out
}

// assertPlacementClean fails if any committed row sits on a shard the live
// partition map does not assign it to.
func assertPlacementClean(t *testing.T, router *Router, table string) {
	t.Helper()
	meta, err := router.meta(table)
	if err != nil {
		t.Fatal(err)
	}
	part := meta.partitioner()
	ownerSet := map[int]bool{}
	for _, o := range part.Ordinals() {
		ownerSet[o] = true
	}
	for s, m := range router.Members() {
		tab, err := m.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		vis := m.Registry.Snapshot(0).Visible
		created, deleted, _ := tab.VersionMeta()
		for idx := range created {
			if !vis(created[idx], deleted[idx]) {
				continue
			}
			row := tab.ReadRow(idx)
			if meta.keyIdx >= 0 {
				if owner := part.Place(row); owner != s {
					t.Fatalf("row %v on shard %d, owner is %d", row, s, owner)
				}
			} else if !ownerSet[s] {
				t.Fatalf("round-robin row %v on non-owner shard %d", row, s)
			}
		}
	}
}

func TestAddMemberMigratesRows(t *testing.T) {
	rows := testRows(4000)
	router, ref := newFleet(t, 3, "ID", rows)

	before := shardRowCounts(t, router, "T")
	// The engine switch lives on the members: a member joining while it is
	// off must take the setting from them.
	router.SetVectorizedExecution(false)
	joiner := accel.New("SHARD3", 2)
	if err := router.AddMember(joiner); err != nil {
		t.Fatal(err)
	}
	if err := router.WaitRebalance(); err != nil {
		t.Fatal(err)
	}

	after := shardRowCounts(t, router, "T")
	if len(after) != 4 {
		t.Fatalf("fleet has %d members, want 4", len(after))
	}
	total := 0
	for _, n := range after {
		total += n
	}
	if total != len(rows) {
		t.Fatalf("fleet holds %d rows after rebalance, want %d (per shard: %v)", total, len(rows), after)
	}
	// Rendezvous hashing: the new member ends up with roughly a quarter of the
	// table — and the survivors only lost rows, never gained.
	if after[3] < len(rows)/5 {
		t.Fatalf("new member owns %d of %d rows; rebalance did not redistribute (counts %v)", after[3], len(rows), after)
	}
	for i := 0; i < 3; i++ {
		if after[i] > before[i] {
			t.Fatalf("surviving shard %d grew from %d to %d rows during a grow rebalance", i, before[i], after[i])
		}
	}
	assertPlacementClean(t, router, "T")

	st := router.ShardingStats()
	if st.RowsMigrated != int64(after[3]) {
		t.Fatalf("RowsMigrated = %d, new member holds %d", st.RowsMigrated, after[3])
	}
	if st.RebalanceBatches == 0 || st.RebalancesCompleted == 0 || st.Epoch == 0 {
		t.Fatalf("rebalance counters not recorded: %+v", st)
	}
	if status := router.RebalanceStatus(); status.Active || len(status.MigratingTables) != 0 || status.LastError != "" {
		t.Fatalf("rebalance did not settle: %+v", status)
	}

	// Differential check: the grown fleet answers exactly like the reference,
	// first with the row engine on every member, the joiner included, then,
	// with the switch back on, with batches on every member.
	for _, vectorized := range []bool{false, true} {
		if vectorized {
			router.SetVectorizedExecution(true)
		}
		ran := make([]int64, len(router.Members()))
		for i, m := range router.Members() {
			ran[i] = -m.Stats().VectorizedQueries
		}
		for _, sql := range []string{
			"SELECT * FROM t ORDER BY id",
			"SELECT dept, COUNT(*), SUM(v) FROM t GROUP BY dept ORDER BY dept",
			"SELECT * FROM t WHERE id = 1234",
			"SELECT COUNT(*) FROM t WHERE id IN (1, 2, 3, 999)",
		} {
			sel := parseSelect(t, sql)
			got, err := router.Query(0, sel)
			if err != nil {
				t.Fatalf("fleet %q: %v", sql, err)
			}
			want, err := ref.Query(0, parseSelect(t, sql))
			if err != nil {
				t.Fatalf("reference %q: %v", sql, err)
			}
			assertSameResult(t, sql, got, want, strings.Contains(sql, "ORDER BY"))
		}
		for i, m := range router.Members() {
			ran[i] += m.Stats().VectorizedQueries
			if (ran[i] > 0) != vectorized || m.VectorizedEnabled() != vectorized {
				t.Fatalf("engine switch %v: member %s ran %d batch plans (switch %v)", vectorized, m.Name(), ran[i], m.VectorizedEnabled())
			}
		}
		if router.VectorizedEnabled() != vectorized {
			t.Fatalf("router reports the engine %v, members have it %v", router.VectorizedEnabled(), vectorized)
		}
	}
}

func TestRemoveMemberDrainsAndDetaches(t *testing.T) {
	rows := testRows(2000)
	router, ref := newFleet(t, 4, "ID", rows)

	if err := router.RemoveMember("SHARD2"); err != nil {
		t.Fatal(err)
	}
	ms := router.Members()
	if len(ms) != 3 {
		t.Fatalf("fleet has %d members after removal, want 3", len(ms))
	}
	for _, m := range ms {
		if m.Name() == "SHARD2" {
			t.Fatal("removed member still in the fleet")
		}
	}
	counts := shardRowCounts(t, router, "T")
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(rows) {
		t.Fatalf("fleet holds %d rows after drain, want %d (%v)", total, len(rows), counts)
	}
	assertPlacementClean(t, router, "T")

	sel := parseSelect(t, "SELECT * FROM t ORDER BY id")
	got, err := router.Query(0, sel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(0, parseSelect(t, "SELECT * FROM t ORDER BY id"))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "post-drain scan", got, want, true)
}

// TestRemoveMemberRefusesBelowTwo is the regression test for shrinking a
// two-member group: the call must fail and leave the group fully intact.
func TestRemoveMemberRefusesBelowTwo(t *testing.T) {
	rows := testRows(100)
	router, _ := newFleet(t, 2, "ID", rows)

	err := router.RemoveMember("SHARD1")
	if err == nil {
		t.Fatal("removing from a 2-member group must fail")
	}
	if !strings.Contains(err.Error(), "at least 2 members") {
		t.Fatalf("unexpected refusal message: %v", err)
	}
	if got := len(router.Members()); got != 2 {
		t.Fatalf("group shrank to %d members despite the refusal", got)
	}
	counts := shardRowCounts(t, router, "T")
	if counts[0]+counts[1] != len(rows) {
		t.Fatalf("rows lost by refused removal: %v", counts)
	}
	// The group stays fully operational.
	rel, err := router.Query(0, parseSelect(t, "SELECT COUNT(*) FROM t"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0].Int != int64(len(rows)) {
		t.Fatalf("count after refused removal: %v", rel.Rows[0][0])
	}
	// Unknown members are refused too.
	if err := router.RemoveMember("NOSUCH"); err == nil {
		t.Fatal("removing an unknown member must fail")
	}
}

// TestRebalanceDoubleRouting drives queries while a rebalance is migrating
// and checks that pruned point lookups never miss rows: placement goes
// through the routed check, which refuses to prune keys the active maps
// disagree on.
func TestRebalanceDoubleRouting(t *testing.T) {
	rows := testRows(3000)
	router, ref := newFleet(t, 3, "ID", rows)

	joiner := accel.New("SHARD3", 2)
	if err := router.AddMember(joiner); err != nil {
		t.Fatal(err)
	}
	// While the background worker churns, hammer point lookups.
	for i := 0; i < 200; i++ {
		id := (i * 13) % len(rows)
		sql := fmt.Sprintf("SELECT id, dept, v FROM t WHERE id = %d", id)
		got, err := router.Query(0, parseSelect(t, sql))
		if err != nil {
			t.Fatalf("%q during rebalance: %v", sql, err)
		}
		want, err := ref.Query(0, parseSelect(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, sql, got, want, false)
	}
	if err := router.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	assertPlacementClean(t, router, "T")
}

// TestRebalanceMovesReplicatedSourceIDs checks that migrated CDC shadow rows
// keep their DB2 source ids: a replicated delete after the rebalance
// must find the row on its new shard.
func TestRebalanceMovesReplicatedSourceIDs(t *testing.T) {
	members := make([]*accel.Accelerator, 3)
	for i := range members {
		members[i] = accel.New(fmt.Sprintf("SHARD%d", i), 2)
	}
	router, err := NewRouter("FLEET", members)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CreateTable("T", testSchema(), "ID"); err != nil {
		t.Fatal(err)
	}
	rows := testRows(600)
	srcIDs := make([]int64, len(rows))
	for i := range srcIDs {
		srcIDs[i] = int64(i + 1)
	}
	if _, err := router.ApplyReplicated("T", replInserts(rows, srcIDs)); err != nil {
		t.Fatal(err)
	}

	if err := router.AddMember(accel.New("SHARD3", 2)); err != nil {
		t.Fatal(err)
	}
	if err := router.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	if moved := router.ShardingStats().RowsMigrated; moved == 0 {
		t.Fatal("no replicated rows migrated")
	}
	// Every source id resolves on exactly one shard, and deletes land.
	for _, src := range []int64{1, 77, 300, 599} {
		holders := 0
		for _, m := range router.Members() {
			if m.HasReplicatedSource("T", src) {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("source id %d mirrored on %d shards after rebalance", src, holders)
		}
		n, err := router.ApplyReplicated("T", []accel.ReplChange{{Op: accel.ReplDelete, SrcID: src}})
		if ok := n == 1; err != nil || !ok {
			t.Fatalf("replicated delete of %d after rebalance: ok=%t err=%v", src, ok, err)
		}
	}
	n, err := router.RowCount(0, "T")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows)-4 {
		t.Fatalf("row count %d after 4 replicated deletes, want %d", n, len(rows)-4)
	}
}

// TestBulkExportImport loads rows with mixed source ids through the router:
// they land partitioned by the live map, each with its source id.
func TestBulkExportImport(t *testing.T) {
	members := []*accel.Accelerator{accel.New("S0", 2), accel.New("S1", 2)}
	router, err := NewRouter("FLEET", members)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CreateTable("T", testSchema(), "ID"); err != nil {
		t.Fatal(err)
	}
	rows := testRows(500)
	srcIDs := make([]int64, len(rows))
	for i := range srcIDs {
		srcIDs[i] = -1
		if i%2 == 0 {
			srcIDs[i] = int64(i + 1)
		}
	}
	n, err := router.ApplyReplicated("T", replInserts(rows, srcIDs))
	if err != nil || n != len(rows) {
		t.Fatalf("ApplyReplicated = %d, %v", n, err)
	}
	assertPlacementClean(t, router, "T")

	stored, withSrc := 0, 0
	for _, m := range router.Members() {
		tab, err := m.Table("T")
		if err != nil {
			t.Fatal(err)
		}
		_, _, ids := tab.VersionMeta()
		stored += len(ids)
		for _, id := range ids {
			if id >= 0 {
				withSrc++
				if !m.HasReplicatedSource("T", id) {
					t.Fatalf("shard %s holds source id %d but does not index it", m.Name(), id)
				}
			}
		}
	}
	if stored != len(rows) || withSrc != len(rows)/2 {
		t.Fatalf("stored %d rows (%d with source ids), want %d (%d)", stored, withSrc, len(rows), len(rows)/2)
	}
}
