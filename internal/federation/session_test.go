package federation

import (
	"strings"
	"testing"

	"idaax/internal/catalog"
	"idaax/internal/types"
)

func newTestCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	return NewCoordinator(Config{AcceleratorName: "IDAA1", Slices: 2})
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestRegularTableLifecycle(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)

	mustExec(t, s, "CREATE TABLE orders (id BIGINT NOT NULL, amount DOUBLE, region VARCHAR(16))")
	mustExec(t, s, "INSERT INTO orders VALUES (1, 10.5, 'EU'), (2, 20.0, 'US'), (3, 5.25, 'EU')")

	res := mustExec(t, s, "SELECT region, SUM(amount) AS total FROM orders GROUP BY region ORDER BY region")
	if res.Routed != "DB2" {
		t.Fatalf("expected query to run in DB2, ran on %s", res.Routed)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 groups, got %d", len(res.Rows))
	}
	if got := res.Rows[0][0].AsString(); got != "EU" {
		t.Fatalf("expected first group EU, got %s", got)
	}
	if got, _ := res.Rows[0][1].AsFloat(); got != 15.75 {
		t.Fatalf("expected EU total 15.75, got %v", got)
	}

	res = mustExec(t, s, "UPDATE orders SET amount = amount * 2 WHERE region = 'US'")
	if res.RowsAffected != 1 {
		t.Fatalf("expected 1 row updated, got %d", res.RowsAffected)
	}
	res = mustExec(t, s, "DELETE FROM orders WHERE id = 1")
	if res.RowsAffected != 1 {
		t.Fatalf("expected 1 row deleted, got %d", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM orders")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("expected 2 rows remaining, got %d", n)
	}
}

func TestAcceleratedTableOffload(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)

	mustExec(t, s, "CREATE TABLE sales (id BIGINT, amount DOUBLE, region VARCHAR(8))")
	mustExec(t, s, "INSERT INTO sales VALUES (1, 100, 'EU'), (2, 50, 'US'), (3, 25, 'EU')")
	mustExec(t, s, "CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'SALES')")
	mustExec(t, s, "CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'SALES')")

	res := mustExec(t, s, "SELECT SUM(amount) FROM sales")
	if res.Routed != "IDAA1" {
		t.Fatalf("expected offload to IDAA1, ran on %s", res.Routed)
	}
	if got, _ := res.Rows[0][0].AsFloat(); got != 175 {
		t.Fatalf("expected 175, got %v", got)
	}

	// With acceleration disabled the same query runs in DB2.
	mustExec(t, s, "SET CURRENT QUERY ACCELERATION = NONE")
	res = mustExec(t, s, "SELECT SUM(amount) FROM sales")
	if res.Routed != "DB2" {
		t.Fatalf("expected DB2 execution with acceleration NONE, got %s", res.Routed)
	}
}

func TestAcceleratorOnlyTableDMLAndTransactions(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)

	mustExec(t, s, "CREATE TABLE stage1 (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	meta, err := c.Catalog().Table("STAGE1")
	if err != nil {
		t.Fatalf("catalog entry missing: %v", err)
	}
	if meta.Kind != catalog.KindAcceleratorOnly {
		t.Fatalf("expected accelerator-only kind, got %v", meta.Kind)
	}

	res := mustExec(t, s, "INSERT INTO stage1 VALUES (1, 1.0), (2, 2.0)")
	if res.RowsAffected != 2 {
		t.Fatalf("expected 2 rows inserted, got %d", res.RowsAffected)
	}

	// Uncommitted changes of the own transaction must be visible; other
	// sessions must not see them until commit.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "INSERT INTO stage1 VALUES (3, 3.0)")
	res = mustExec(t, s, "SELECT COUNT(*) FROM stage1")
	if n, _ := res.Rows[0][0].AsInt(); n != 3 {
		t.Fatalf("own transaction should see 3 rows, saw %d", n)
	}
	other := c.Session(catalog.AdminUser)
	res2, err := other.Exec("SELECT COUNT(*) FROM stage1")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res2.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("other session should see 2 committed rows, saw %d", n)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM stage1")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("after rollback 2 rows expected, saw %d", n)
	}

	// UPDATE and DELETE are delegated too.
	mustExec(t, s, "UPDATE stage1 SET v = v + 10 WHERE k = 1")
	res = mustExec(t, s, "SELECT v FROM stage1 WHERE k = 1")
	if got, _ := res.Rows[0][0].AsFloat(); got != 11.0 {
		t.Fatalf("expected 11.0 after update, got %v", got)
	}
	mustExec(t, s, "DELETE FROM stage1 WHERE k = 2")
	res = mustExec(t, s, "SELECT COUNT(*) FROM stage1")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("expected 1 row after delete, saw %d", n)
	}
}

func TestInsertSelectBetweenSystems(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)

	mustExec(t, s, "CREATE TABLE src (id BIGINT, amount DOUBLE)")
	mustExec(t, s, "INSERT INTO src VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
	mustExec(t, s, "CREATE TABLE tgt (id BIGINT, amount DOUBLE) IN ACCELERATOR IDAA1")

	res := mustExec(t, s, "INSERT INTO tgt SELECT id, amount FROM src WHERE amount > 1")
	if res.RowsAffected != 3 {
		t.Fatalf("expected 3 rows moved, got %d", res.RowsAffected)
	}
	m := c.Metrics()
	if m.RowsMovedToAccelerator != 3 {
		t.Fatalf("expected 3 rows counted as moved to accelerator, got %d", m.RowsMovedToAccelerator)
	}

	// AOT -> AOT stays on the accelerator: no cross-system movement.
	mustExec(t, s, "CREATE TABLE tgt2 (id BIGINT, amount DOUBLE) IN ACCELERATOR IDAA1")
	c.ResetMetrics()
	mustExec(t, s, "INSERT INTO tgt2 SELECT id, amount * 2 FROM tgt")
	m = c.Metrics()
	if m.RowsMovedToAccelerator != 0 || m.RowsMovedToDB2 != 0 {
		t.Fatalf("AOT->AOT insert should not move rows across systems, got %+v", m)
	}
}

func TestGovernancePrivileges(t *testing.T) {
	c := newTestCoordinator(t)
	admin := c.Session(catalog.AdminUser)
	mustExec(t, admin, "CREATE TABLE secure (id BIGINT, secret VARCHAR(32)) IN ACCELERATOR IDAA1")
	mustExec(t, admin, "INSERT INTO secure VALUES (1, 'x')")

	alice := c.Session("ALICE")
	if _, err := alice.Exec("SELECT * FROM secure"); err == nil {
		t.Fatal("expected SELECT without privilege to fail")
	} else if !strings.Contains(err.Error(), "lacks SELECT") {
		t.Fatalf("unexpected error: %v", err)
	}

	mustExec(t, admin, "GRANT SELECT ON secure TO alice")
	if _, err := alice.Exec("SELECT * FROM secure"); err != nil {
		t.Fatalf("SELECT after grant should succeed: %v", err)
	}
	if _, err := alice.Exec("INSERT INTO secure VALUES (2, 'y')"); err == nil {
		t.Fatal("expected INSERT without privilege to fail")
	}
	mustExec(t, admin, "REVOKE SELECT ON secure FROM alice")
	if _, err := alice.Exec("SELECT * FROM secure"); err == nil {
		t.Fatal("expected SELECT after revoke to fail")
	}
}

func TestExplainAndShow(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)
	mustExec(t, s, "CREATE TABLE t1 (id BIGINT)")
	mustExec(t, s, "CREATE TABLE a1 (id BIGINT) IN ACCELERATOR IDAA1")

	res := mustExec(t, s, "EXPLAIN SELECT * FROM a1")
	if len(res.Rows) < 1 || res.Rows[0][1].AsString() != "IDAA1" {
		t.Fatalf("expected EXPLAIN to route to IDAA1, got %+v", res.Rows)
	}
	// Offloaded SELECTs additionally render the cost-based plan tree.
	foundScan := false
	for _, row := range res.Rows[1:] {
		if strings.Contains(row[3].AsString(), "SCAN A1") {
			foundScan = true
		}
	}
	if !foundScan {
		t.Fatalf("expected a SCAN A1 plan line, got %+v", res.Rows)
	}
	res = mustExec(t, s, "EXPLAIN SELECT * FROM t1")
	if res.Rows[0][1].AsString() != "DB2" {
		t.Fatalf("expected EXPLAIN to route to DB2, got %+v", res.Rows)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("DB2-routed EXPLAIN should be summary-only, got %+v", res.Rows)
	}

	res = mustExec(t, s, "SHOW TABLES")
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 tables, got %d", len(res.Rows))
	}
	res = mustExec(t, s, "SHOW ACCELERATORS")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "IDAA1" {
		t.Fatalf("expected accelerator IDAA1, got %+v", res.Rows)
	}
}

func TestReplicationKeepsShadowInSync(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)
	mustExec(t, s, "CREATE TABLE facts (id BIGINT, v DOUBLE)")
	mustExec(t, s, "INSERT INTO facts VALUES (1, 1), (2, 2)")
	mustExec(t, s, "CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'FACTS')")
	mustExec(t, s, "CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'FACTS')")
	mustExec(t, s, "CALL SYSPROC.ACCEL_SET_TABLES_REPLICATION('IDAA1', 'FACTS', 'ON')")

	mustExec(t, s, "INSERT INTO facts VALUES (3, 3)")
	mustExec(t, s, "UPDATE facts SET v = 20 WHERE id = 2")
	mustExec(t, s, "DELETE FROM facts WHERE id = 1")
	if pending := c.Repl.PendingChanges("FACTS"); pending != 3 {
		t.Fatalf("expected 3 pending changes, got %d", pending)
	}
	mustExec(t, s, "CALL SYSPROC.ACCEL_SYNC_TABLES('IDAA1', 'FACTS')")

	res := mustExec(t, s, "SELECT id, v FROM facts ORDER BY id")
	if res.Routed != "IDAA1" {
		t.Fatalf("expected offload, got %s", res.Routed)
	}
	want := [][2]float64{{2, 20}, {3, 3}}
	if len(res.Rows) != len(want) {
		t.Fatalf("expected %d rows, got %d", len(want), len(res.Rows))
	}
	for i, w := range want {
		id, _ := res.Rows[i][0].AsFloat()
		v, _ := res.Rows[i][1].AsFloat()
		if id != w[0] || v != w[1] {
			t.Fatalf("row %d: got (%v,%v) want %v", i, id, v, w)
		}
	}
}

func TestCommitHandshakeFailpoint(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)
	mustExec(t, s, "CREATE TABLE aot (id BIGINT) IN ACCELERATOR IDAA1")

	// Failure after prepare rolls both sides back.
	c.Failpoint = func(stage string) error {
		if stage == "after-prepare" {
			return errInjected
		}
		return nil
	}
	if _, err := s.Exec("INSERT INTO aot VALUES (1)"); err == nil {
		t.Fatal("expected injected failure")
	}
	c.Failpoint = nil
	res := mustExec(t, s, "SELECT COUNT(*) FROM aot")
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("aborted transaction must not be visible, saw %d rows", n)
	}

	// Failure after the DB2 commit still drives the accelerator to commit.
	c.Failpoint = func(stage string) error {
		if stage == "after-db2-commit" {
			return errInjected
		}
		return nil
	}
	if _, err := s.Exec("INSERT INTO aot VALUES (2)"); err == nil {
		t.Fatal("expected the failpoint error to surface")
	}
	c.Failpoint = nil
	res = mustExec(t, s, "SELECT COUNT(*) FROM aot")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("in-doubt transaction should resolve to commit, saw %d rows", n)
	}
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected coordinator failure" }

func TestValuesInsertMovementAccounting(t *testing.T) {
	c := newTestCoordinator(t)
	s := c.Session(catalog.AdminUser)
	mustExec(t, s, "CREATE TABLE aot (id BIGINT, v VARCHAR(8)) IN ACCELERATOR IDAA1")
	c.ResetMetrics()
	mustExec(t, s, "INSERT INTO aot VALUES (1,'a'),(2,'b')")
	if m := c.Metrics(); m.RowsMovedToAccelerator != 2 {
		t.Fatalf("VALUES into AOT should count as rows moved to accelerator, got %d", m.RowsMovedToAccelerator)
	}
	res := mustExec(t, s, "SELECT COUNT(*), MIN(v) FROM aot")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("expected 2 rows, got %d", n)
	}
	if got := res.Rows[0][1].AsString(); got != "a" {
		t.Fatalf("expected min 'a', got %q", got)
	}
	_ = types.Null()
}
