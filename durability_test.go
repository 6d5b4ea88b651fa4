package idaax

// Durability acceptance tests. They live in the idaax package (not
// idaax_test) so they can inject the crash-simulating filesystem through the
// unexported Config.fs hook; everything else goes through the public facade,
// exactly as a durable deployment would.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"idaax/internal/accel"
	"idaax/internal/testutil/crashfs"
	"idaax/internal/types"
)

// durableConfig builds a Config backed by the given crash filesystem. With
// n >= 2 the fleet gets n accelerators and the implicit SHARDS group.
func durableConfig(fs *crashfs.FS, n int) Config {
	cfg := memoryConfig(n)
	cfg.fs = fs
	return cfg
}

// memoryConfig is durableConfig without a filesystem: a purely in-memory
// system with the same fleet topology (the differential twin).
func memoryConfig(n int) Config {
	cfg := Config{AnalyticsPublic: true, AcceleratorSlices: 2}
	for i := 0; i < n && n >= 2; i++ {
		cfg.Accelerators = append(cfg.Accelerators,
			AcceleratorConfig{Name: fmt.Sprintf("IDAA%d", i+1), Slices: 2})
	}
	return cfg
}

// sortedRows reads every row of a table through the session layer and returns
// a canonical sorted fingerprint, so two systems can be compared exactly.
func sortedRows(t *testing.T, sys *System, table string) []string {
	t.Helper()
	res, err := sys.AdminSession().Query("SELECT * FROM " + table)
	if err != nil {
		t.Fatalf("read %s: %v", table, err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "|")
	}
	sort.Strings(rows)
	return rows
}

// db2Rows reads a table with query acceleration off, so the fingerprint is
// the DB2 ground truth and not a replication-lagged accelerator copy.
func db2Rows(t *testing.T, sys *System, table string) []string {
	t.Helper()
	s := sys.AdminSession()
	if err := s.SetAcceleration("NONE"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT * FROM " + table)
	if err != nil {
		t.Fatalf("read %s from DB2: %v", table, err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "|")
	}
	sort.Strings(rows)
	return rows
}

func rowsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDurableRoundTrip is the basic life cycle: write, close cleanly, reopen,
// and find the exact committed state — an accelerator-only table, a DB2 heap
// table and an accelerated (replicated) table all survive.
func TestDurableRoundTrip(t *testing.T) {
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Durable() {
		t.Fatal("system with an injected fs should report durable")
	}
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE aot (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	s.MustExec("INSERT INTO aot VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
	s.MustExec("DELETE FROM aot WHERE k = 2")
	s.MustExec("CREATE TABLE heap (id BIGINT, name VARCHAR(8))")
	s.MustExec("INSERT INTO heap VALUES (10, 'a'), (11, 'b')")
	s.MustExec("CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'HEAP')")
	s.MustExec("CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'HEAP')")
	s.MustExec("INSERT INTO heap VALUES (12, 'c')")
	wantAOT := sortedRows(t, sys, "aot")
	wantHeap := db2Rows(t, sys, "heap")
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := sortedRows(t, re, "aot"); !rowsEqual(got, wantAOT) {
		t.Fatalf("aot after reopen: %v, want %v", got, wantAOT)
	}
	if got := db2Rows(t, re, "heap"); !rowsEqual(got, wantHeap) {
		t.Fatalf("heap after reopen: %v, want %v", got, wantHeap)
	}
	if !re.Coordinator().RecoveryInfo().Recovered {
		t.Fatal("reopen should report a recovered store")
	}
	// The reopened system keeps working: new DML lands on recovered tables.
	re.AdminSession().MustExec("INSERT INTO aot VALUES (9, 9.5)")
	if got := len(sortedRows(t, re, "aot")); got != len(wantAOT)+1 {
		t.Fatalf("insert after recovery: %d rows", got)
	}
}

// TestDurableReopenAfterKill loses the process without Close: everything a
// successful statement committed must be there after WAL replay.
func TestDurableReopenAfterKill(t *testing.T) {
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE kv (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	s.MustExec("INSERT INTO kv VALUES (1, 1), (2, 2), (3, 3)")
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint DML lives only in the WAL at kill time.
	s.MustExec("INSERT INTO kv VALUES (4, 4)")
	s.MustExec("UPDATE kv SET v = 20 WHERE k = 2")
	s.MustExec("DELETE FROM kv WHERE k = 1")
	want := sortedRows(t, sys, "kv")

	fs.Crash() // kill -9: drop everything that was not fsynced
	re, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer re.Close()
	info := re.Coordinator().RecoveryInfo()
	if !info.Recovered || info.WALRecords == 0 {
		t.Fatalf("kill recovery should replay WAL records: %+v", info)
	}
	if got := sortedRows(t, re, "kv"); !rowsEqual(got, want) {
		t.Fatalf("after kill: %v, want %v", got, want)
	}
}

// TestCloseFlushesFinalCheckpoint is the System.Close regression: a clean
// shutdown writes a final checkpoint and fsyncs the WAL, so reopening replays
// nothing, leaks no goroutines, and a second Close is a no-op.
func TestCloseFlushesFinalCheckpoint(t *testing.T) {
	before := runtime.NumGoroutine()
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE fin (k BIGINT, v DOUBLE) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(k)")
	s.MustExec("INSERT INTO fin VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
	want := sortedRows(t, sys, "fin")
	if err := sys.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second close must be an idempotent no-op, got %v", err)
	}

	// All background goroutines (watchdog, group-commit, auto-checkpoint)
	// must be gone; allow the runtime a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after Close: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}

	re, err := OpenDurable(durableConfig(fs, 2))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	info := re.Coordinator().RecoveryInfo()
	if info.WALRecords != 0 {
		t.Fatalf("clean shutdown must leave nothing to replay, replayed %d records", info.WALRecords)
	}
	if got := sortedRows(t, re, "fin"); !rowsEqual(got, want) {
		t.Fatalf("after clean shutdown: %v, want %v", got, want)
	}
}

// TestCDCCatchUpAfterRestart proves a restarted member resumes from its
// durable replication cursor — the accelerated table takes the incremental
// CDC path, not a full re-load from DB2.
func TestCDCCatchUpAfterRestart(t *testing.T) {
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE facts (id BIGINT, amount DOUBLE)")
	s.MustExec("INSERT INTO facts VALUES (1, 10), (2, 20)")
	s.MustExec("CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'FACTS')")
	s.MustExec("CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'FACTS')")
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Changes after the checkpoint arrive via the CDC stream on recovery.
	s.MustExec("INSERT INTO facts VALUES (3, 30), (4, 40)")
	s.MustExec("DELETE FROM facts WHERE id = 1")
	want := db2Rows(t, sys, "facts")
	fs.Crash()

	re, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	info := re.Coordinator().RecoveryInfo()
	if info.CaughtUp < 1 {
		t.Fatalf("accelerated table should catch up incrementally: %+v", info)
	}
	if info.FullLoaded != 0 {
		t.Fatalf("no table should need a full re-load, got %d: %+v", info.FullLoaded, info)
	}
	if got := sortedRows(t, re, "facts"); !rowsEqual(got, want) {
		t.Fatalf("after catch-up: %v, want %v", got, want)
	}
	// The accelerator copy (not just the DB2 heap) must answer queries.
	res, err := re.AdminSession().Query("SELECT SUM(amount) FROM facts")
	if err != nil || res.Routed == "" || res.Routed == "DB2" {
		t.Fatalf("query after catch-up should offload: routed=%q err=%v", res.Routed, err)
	}
}

// TestAbortedReplicationBatchRetriedAfterReopen crashes a system whose last
// checkpoint holds the versions of an aborted replication batch. The restored
// registry no longer knows the aborted transaction, so recovery must not
// index those versions' source ids: the catch-up that retries the batch on
// reopen has to append the rows again, and the shadow must equal DB2.
func TestAbortedReplicationBatchRetriedAfterReopen(t *testing.T) {
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE facts (id BIGINT, amount DOUBLE)")
	s.MustExec("INSERT INTO facts VALUES (1, 10), (2, 20)")
	s.MustExec("CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'FACTS')")
	s.MustExec("CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'FACTS')")
	s.MustExec("CALL SYSPROC.ACCEL_SET_TABLES_REPLICATION('IDAA1', 'FACTS', 'ON')")
	s.MustExec("INSERT INTO facts VALUES (3, 30), (4, 40)")

	// Apply the pending changes the way the replicator batches them, with
	// one more change that fails after the inserts have landed (an update
	// image one column short), so the batch's internal transaction aborts.
	coord := sys.Coordinator()
	state, _ := coord.Repl.State("FACTS")
	var batch []accel.ReplChange
	for _, ch := range coord.DB2.Changes.Since("FACTS", state.AppliedSeq) {
		batch = append(batch, accel.ReplChange{Op: accel.ReplInsert, SrcID: int64(ch.RowID), Row: ch.Row})
	}
	if len(batch) != 2 {
		t.Fatalf("%d pending changes, want 2", len(batch))
	}
	batch = append(batch, accel.ReplChange{Op: accel.ReplUpdate, SrcID: batch[0].SrcID, Row: types.Row{types.NewInt(3)}})
	b, err := coord.Accelerator("IDAA1")
	if err != nil {
		t.Fatal(err)
	}
	member := b.(*accel.Accelerator)
	if _, err := member.ApplyReplicated("FACTS", batch); err == nil {
		t.Fatal("a batch with a malformed update image applied")
	}
	for _, ch := range batch[:2] {
		if member.HasReplicatedSource("FACTS", ch.SrcID) {
			t.Fatalf("aborted batch left source %d indexed on the live member", ch.SrcID)
		}
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := db2Rows(t, sys, "facts")
	fs.Crash()

	re, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if info := re.Coordinator().RecoveryInfo(); info.CaughtUp < 1 {
		t.Fatalf("the shadow table should catch up incrementally: %+v", info)
	}
	if got := sortedRows(t, re, "facts"); !rowsEqual(got, want) {
		t.Fatalf("shadow after the retried batch: %v, want DB2's %v", got, want)
	}
	res, err := re.AdminSession().Query("SELECT COUNT(*) FROM facts")
	if err != nil || res.Routed == "" || res.Routed == "DB2" {
		t.Fatalf("the read should offload to the shadow: routed=%q err=%v", res.Routed, err)
	}
}

// TestFleetKillRestart kills a 3-shard fleet mid-flight and reopens it with
// the same topology: every shard-local slice of the table recovers exactly
// and scatter-gather queries see the full committed data set.
func TestFleetKillRestart(t *testing.T) {
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE events (id BIGINT NOT NULL, region VARCHAR(8), amount DOUBLE) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(id)")
	regions := []string{"EU", "US", "APAC"}
	var sb strings.Builder
	sb.WriteString("INSERT INTO events VALUES ")
	for i := 0; i < 240; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, '%s', %g)", i, regions[i%3], float64(i%17)*0.5)
	}
	s.MustExec(sb.String())
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.MustExec("INSERT INTO events VALUES (1000, 'EU', 99.5), (1001, 'US', 98.5)")
	s.MustExec("DELETE FROM events WHERE id < 10")
	want := sortedRows(t, sys, "events")
	wantAgg, err := s.Query("SELECT region, COUNT(*), SUM(amount) FROM events GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	re, err := OpenDurable(durableConfig(fs, 3))
	if err != nil {
		t.Fatalf("reopen fleet: %v", err)
	}
	defer re.Close()
	if got := sortedRows(t, re, "events"); !rowsEqual(got, want) {
		t.Fatalf("fleet restart lost rows: %d got vs %d want", len(got), len(want))
	}
	gotAgg, err := re.AdminSession().Query("SELECT region, COUNT(*), SUM(amount) FROM events GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(gotAgg.Rows, func(i, j int) bool { return gotAgg.Rows[i][0] < gotAgg.Rows[j][0] })
	sort.Slice(wantAgg.Rows, func(i, j int) bool { return wantAgg.Rows[i][0] < wantAgg.Rows[j][0] })
	if fmt.Sprint(gotAgg.Rows) != fmt.Sprint(wantAgg.Rows) {
		t.Fatalf("scatter-gather after restart: %v, want %v", gotAgg.Rows, wantAgg.Rows)
	}
	// Every member still owns a slice: the group stats must not be empty.
	gs, err := re.ShardGroupStats("SHARDS")
	if err != nil || len(gs.Shards) != 3 {
		t.Fatalf("shard group after restart: %+v, %v", gs, err)
	}
}

// TestRecoveryRebuildsStatistics checks that zone maps and table statistics
// come back after a restart: ANALYZE'd statistics are reusable and a fresh
// ANALYZE on recovered data succeeds with the same row count.
func TestRecoveryRebuildsStatistics(t *testing.T) {
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE st (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	var sb strings.Builder
	sb.WriteString("INSERT INTO st VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %g)", i, float64(i))
	}
	s.MustExec(sb.String())
	if _, err := sys.AnalyzeTable("st"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	re, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n, err := re.AnalyzeTable("st")
	if err != nil || n != 500 {
		t.Fatalf("analyze recovered table: n=%d err=%v", n, err)
	}
	stats, err := re.TableStatistics("st")
	if err != nil || stats.Rows != 500 {
		t.Fatalf("statistics after recovery: %+v, %v", stats, err)
	}
	// Zone-map pruning still works on recovered segments: a selective range
	// scan returns the exact rows.
	res, err := re.AdminSession().Query("SELECT COUNT(*) FROM st WHERE k >= 490")
	if err != nil || res.Rows[0][0] != "10" {
		t.Fatalf("range scan after recovery: %+v, %v", res, err)
	}
}
