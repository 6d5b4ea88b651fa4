package idaax_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"idaax"
)

// newShardedSystem builds a system with n accelerators and the implicit SHARDS
// group spanning them.
func newShardedSystem(t *testing.T, n int) *idaax.System {
	t.Helper()
	accels := make([]idaax.AcceleratorConfig, n)
	for i := range accels {
		accels[i] = idaax.AcceleratorConfig{Name: fmt.Sprintf("IDAA%d", i+1), Slices: 2}
	}
	return idaax.New(idaax.Config{Accelerators: accels, AnalyticsPublic: true})
}

func seedShardedTable(t *testing.T, sys *idaax.System, accelerator string) {
	t.Helper()
	s := sys.AdminSession()
	ddl := fmt.Sprintf(
		"CREATE TABLE metrics (id BIGINT NOT NULL, region VARCHAR(8), amount DOUBLE) IN ACCELERATOR %s DISTRIBUTE BY HASH(id)",
		accelerator)
	if _, err := s.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	regions := []string{"EU", "US", "APAC"}
	var sb strings.Builder
	sb.WriteString("INSERT INTO metrics VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, '%s', %g)", i, regions[i%3], float64(i%13)*0.25)
	}
	if res, err := s.Exec(sb.String()); err != nil || res.RowsAffected != 300 {
		t.Fatalf("seed insert: %+v, %v", res, err)
	}
}

func resultFingerprint(res *idaax.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ",") + "\n")
	for _, row := range res.Rows {
		sb.WriteString(strings.Join(row, "|") + "\n")
	}
	return sb.String()
}

// TestShardedDifferentialSQL is the end-to-end acceptance test: a table
// created with DISTRIBUTE BY HASH over two configured accelerators answers
// every statement byte-identically to the same table on a single-accelerator
// system.
func TestShardedDifferentialSQL(t *testing.T) {
	sharded := newShardedSystem(t, 2)
	defer sharded.Close()
	single := newTestSystem(t)
	defer single.Close()

	seedShardedTable(t, sharded, "SHARDS")
	seedShardedTable(t, single, "IDAA1")

	queries := []struct {
		sql     string
		ordered bool
	}{
		{"SELECT * FROM metrics ORDER BY id", true},
		{"SELECT id, amount FROM metrics WHERE amount > 1.5 ORDER BY id", true},
		{"SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM metrics", true},
		{"SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM metrics GROUP BY region ORDER BY region", true},
		{"SELECT region, AVG(amount) FROM metrics GROUP BY region HAVING COUNT(*) > 10 ORDER BY region", true},
		{"SELECT DISTINCT region FROM metrics ORDER BY region", true},
		{"SELECT id, region FROM metrics ORDER BY id LIMIT 20 OFFSET 10", true},
		{"SELECT * FROM metrics WHERE id = 42", true},
		{"SELECT region, COUNT(*) FROM metrics WHERE id = 42 GROUP BY region", false},
		{"SELECT m.region, COUNT(*) FROM metrics m INNER JOIN metrics o ON m.id = o.id GROUP BY m.region ORDER BY m.region", true},
	}
	shardedSession := sharded.AdminSession()
	singleSession := single.AdminSession()
	for _, q := range queries {
		got, err := shardedSession.Query(q.sql)
		if err != nil {
			t.Fatalf("sharded %q: %v", q.sql, err)
		}
		want, err := singleSession.Query(q.sql)
		if err != nil {
			t.Fatalf("single %q: %v", q.sql, err)
		}
		gf, wf := resultFingerprint(got), resultFingerprint(want)
		if !q.ordered {
			gl, wl := strings.Split(gf, "\n"), strings.Split(wf, "\n")
			sort.Strings(gl)
			sort.Strings(wl)
			gf, wf = strings.Join(gl, "\n"), strings.Join(wl, "\n")
		}
		if gf != wf {
			t.Errorf("%s:\n--- sharded ---\n%s--- single ---\n%s", q.sql, gf, wf)
		}
	}

	// DML flows through the router identically.
	for _, stmt := range []string{
		"UPDATE metrics SET amount = amount * 2 WHERE region = 'EU'",
		"DELETE FROM metrics WHERE id >= 280",
	} {
		gres, err := shardedSession.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := singleSession.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if gres.RowsAffected != wres.RowsAffected {
			t.Fatalf("%s: affected %d sharded vs %d single", stmt, gres.RowsAffected, wres.RowsAffected)
		}
	}
	got, err := shardedSession.Query("SELECT id, region, amount FROM metrics ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	want, err := singleSession.Query("SELECT id, region, amount FROM metrics ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(got) != resultFingerprint(want) {
		t.Fatal("post-DML state diverged between sharded and single-accelerator systems")
	}
}

func TestShardGroupStatsAPI(t *testing.T) {
	sys := newShardedSystem(t, 3)
	defer sys.Close()
	seedShardedTable(t, sys, "SHARDS")
	s := sys.AdminSession()

	if _, err := s.Query("SELECT region, SUM(amount) FROM metrics GROUP BY region"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT * FROM metrics WHERE id = 5"); err != nil {
		t.Fatal(err)
	}

	stats, err := sys.ShardGroupStats("") // default group name
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 3 {
		t.Fatalf("expected 3 shard entries, got %d", len(stats.Shards))
	}
	var scanned, ingested int64
	for _, sh := range stats.Shards {
		if sh.RowsIngested == 0 {
			t.Fatalf("shard %s ingested no rows; hash distribution degenerate", sh.Name)
		}
		scanned += sh.RowsScanned
		ingested += sh.RowsIngested
	}
	if scanned != stats.Group.RowsScanned {
		t.Fatalf("per-shard RowsScanned sum %d != aggregate %d", scanned, stats.Group.RowsScanned)
	}
	if ingested != stats.Group.RowsIngested {
		t.Fatalf("per-shard RowsIngested sum %d != aggregate %d", ingested, stats.Group.RowsIngested)
	}
	if stats.QueriesRouted < 2 || stats.TwoPhaseAggregates < 1 || stats.QueriesPruned < 1 {
		t.Fatalf("routing counters not recorded: %+v", stats)
	}

	// The generic per-accelerator stats API answers for the group name too.
	agg, err := sys.AcceleratorStats("SHARDS")
	if err != nil {
		t.Fatal(err)
	}
	if agg.RowsScanned != stats.Group.RowsScanned || agg.Tables != 1 {
		t.Fatalf("AcceleratorStats(SHARDS) = %+v", agg)
	}
	// Asking for shard stats of a plain accelerator fails cleanly.
	if _, err := sys.ShardGroupStats("IDAA1"); err == nil {
		t.Fatal("ShardGroupStats on a single accelerator must fail")
	}
}

// TestShardGroupStatsConsistentUnderLoad takes group snapshots while two
// sessions keep querying: every snapshot's Group must be exactly the sum of
// its Shards, so the aggregate and the per-shard view never disagree.
func TestShardGroupStatsConsistentUnderLoad(t *testing.T) {
	sys := newShardedSystem(t, 3)
	defer sys.Close()
	seedShardedTable(t, sys, "SHARDS")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sys.AdminSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Query("SELECT region, SUM(amount) FROM metrics GROUP BY region"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Keep snapshotting until at least 500 are taken and a query has
	// completed in between, so the snapshots really raced the queries.
	const snapshots = 500
	deadline := time.Now().Add(10 * time.Second)
	var first int64
	inconsistent, taken := 0, 0
	for progressed := false; taken < snapshots || !progressed; taken++ {
		if time.Now().After(deadline) {
			t.Fatal("no query completed while the snapshots were taken")
		}
		st, err := sys.ShardGroupStats("")
		if err != nil {
			t.Fatal(err)
		}
		var sum idaax.AcceleratorStats
		for _, sh := range st.Shards {
			sum.QueriesRun += sh.QueriesRun
			sum.RowsScanned += sh.RowsScanned
			sum.BlocksPruned += sh.BlocksPruned
			sum.Slices += sh.Slices
		}
		g := st.Group
		if g.QueriesRun != sum.QueriesRun || g.RowsScanned != sum.RowsScanned ||
			g.BlocksPruned != sum.BlocksPruned || g.Slices != sum.Slices {
			inconsistent++
		}
		if taken == 0 {
			first = g.QueriesRun
		}
		progressed = g.QueriesRun > first
	}
	if inconsistent > 0 {
		t.Fatalf("%d of %d snapshots: Group differs from the sum of Shards", inconsistent, taken)
	}
}

func TestShardedReplicationSQL(t *testing.T) {
	sys := newShardedSystem(t, 2)
	defer sys.Close()
	s := sys.AdminSession()

	if _, err := s.Exec("CREATE TABLE facts (id BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO facts VALUES (1,1),(2,2),(3,3),(4,4)"); err != nil {
		t.Fatal(err)
	}
	// Accelerate onto the shard group: the shadow copy is partitioned.
	if _, err := s.Exec("CALL SYSPROC.ACCEL_ADD_TABLES('SHARDS', 'FACTS', 'ID')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CALL SYSPROC.ACCEL_LOAD_TABLES('SHARDS', 'FACTS')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CALL SYSPROC.ACCEL_SET_TABLES_REPLICATION('SHARDS', 'FACTS', 'ON')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO facts VALUES (5,5),(6,6)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CALL SYSPROC.ACCEL_SYNC_TABLES('SHARDS')"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT COUNT(*), SUM(v) FROM facts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed != "SHARDS" {
		t.Fatalf("query routed to %s, want SHARDS", res.Routed)
	}
	if res.Rows[0][0] != "6" || res.Rows[0][1] != "21" {
		t.Fatalf("replicated sharded table answered %v", res.Rows[0])
	}
}
