package idaax_test

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"idaax"
)

var timePat = regexp.MustCompile(`time=\d+\.\d{3}ms`)

// planText joins the PLAN column of an EXPLAIN result and normalizes measured
// times so golden comparisons only see structure, rows and counters.
func planText(res *idaax.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows[1:] {
		sb.WriteString(row[3])
		sb.WriteString("\n")
	}
	return timePat.ReplaceAllString(sb.String(), "time=<t>")
}

// TestExplainGolden pins the full EXPLAIN and EXPLAIN ANALYZE output for the
// plan shapes the planner distinguishes: co-located join, broadcast join,
// distribution-key pruning, vectorized single-accelerator execution and the
// row-at-a-time fallback. Measured times are normalized; every other token —
// estimates, actual row counts, shard counts, placement — is exact.
func TestExplainGolden(t *testing.T) {
	sharded := newShardedSystem(t, 3)
	seedJoinTables(t, sharded, "SHARDS")
	single := idaax.New(idaax.Config{AcceleratorSlices: 2})
	seedJoinTables(t, single, "IDAA1")
	for _, sys := range []*idaax.System{sharded, single} {
		s := sys.AdminSession()
		for _, tbl := range []string{"orders", "customers", "lookup"} {
			s.MustExec("ANALYZE TABLE " + tbl)
		}
	}
	noVec := idaax.New(idaax.Config{AcceleratorSlices: 2})
	seedJoinTables(t, noVec, "IDAA1")
	noVec.AdminSession().MustExec("ANALYZE TABLE orders")
	noVec.SetVectorizedExecution(false)

	cases := []struct {
		name        string
		sys         *idaax.System
		sql         string
		want        string
		wantAnalyze string
	}{
		{
			name: "colocated join",
			sys:  sharded,
			sql:  "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.customer_id = c.id",
			want: `estimated cost=1257.0 rows=400
execution: vectorized (hash-join)
placement: co-located, shard-local execution on all 3 shards
HASH JOIN (O.CUSTOMER_ID = C.ID) rows=400 cost=1257.0 [co-located on distribution keys] [vectorized batch]
  SCAN ORDERS O rows=400/400 (analyzed) encoding=dict(region:3)
  SCAN CUSTOMERS C rows=59/59 (analyzed) encoding=dict(name:27,segment:3)
`,
			wantAnalyze: `estimated cost=1257.0 rows=400
actual rows=400 time=<t>
execution: vectorized (hash-join)
placement: co-located, shard-local execution on all 3 shards
HASH JOIN (O.CUSTOMER_ID = C.ID) rows=400 cost=1257.0 [co-located on distribution keys] [vectorized batch]
  SCAN ORDERS O rows=400/400 (analyzed) encoding=dict(region:3) (actual rows=400 time=<t> shards=3)
  SCAN CUSTOMERS C rows=59/59 (analyzed) encoding=dict(name:27,segment:3) (actual rows=59 time=<t> shards=3)
`,
		},
		{
			name: "broadcast join",
			sys:  sharded,
			sql:  "SELECT l.region, SUM(o.amount * l.factor) FROM orders o JOIN lookup l ON o.region = l.region GROUP BY l.region",
			want: `estimated cost=955.7 rows=133
execution: vectorized (scan)
placement: broadcast L to all 3 shards, join shard-local
HASH JOIN (O.REGION = L.REGION) rows=133 cost=955.7
  SCAN ORDERS O rows=400/400 (analyzed) encoding=dict(region:3)
  SCAN LOOKUP L rows=3/3 (analyzed) encoding=dict(region:1) [broadcast]
`,
			wantAnalyze: `estimated cost=955.7 rows=133
actual rows=3 time=<t>
execution: vectorized (scan)
placement: broadcast L to all 3 shards, join shard-local
HASH JOIN (O.REGION = L.REGION) rows=133 cost=955.7
  SCAN ORDERS O rows=400/400 (analyzed) encoding=dict(region:3) (actual rows=400 time=<t> shards=3)
  SCAN LOOKUP L rows=3/3 (analyzed) encoding=dict(region:1) [broadcast] (actual rows=3 time=<t> shards=3)
`,
		},
		{
			name: "pruned",
			sys:  sharded,
			sql:  "SELECT COUNT(*) FROM orders WHERE customer_id = 7",
			want: `estimated cost=6.8 rows=7
execution: vectorized (scan+filter+aggregate)
placement: single shard 0 of 3 (pruned by distribution key)
SCAN ORDERS rows=7/400 pushdown=[CUSTOMER_ID = 7] (analyzed) encoding=dict(region:3) [shards 0]
`,
			wantAnalyze: `estimated cost=6.8 rows=7
actual rows=1 time=<t>
execution: vectorized (scan+filter+aggregate)
placement: single shard 0 of 3 (pruned by distribution key)
SCAN ORDERS rows=7/400 pushdown=[CUSTOMER_ID = 7] (analyzed) encoding=dict(region:3) [shards 0] (actual rows=7 time=<t>)
`,
		},
		{
			name: "vectorized",
			sys:  single,
			sql:  "SELECT region, COUNT(*), SUM(amount) FROM orders WHERE amount > 1 GROUP BY region",
			want: `estimated cost=290.9 rows=291
execution: vectorized (scan+filter+aggregate)
SCAN ORDERS rows=291/400 pushdown=[AMOUNT > 1] (analyzed) encoding=dict(region:3)
`,
			wantAnalyze: `estimated cost=290.9 rows=291
actual rows=3 time=<t>
execution: vectorized (scan+filter+aggregate)
SCAN ORDERS rows=291/400 pushdown=[AMOUNT > 1] (analyzed) encoding=dict(region:3) (actual rows=289 time=<t>)
`,
		},
		{
			name: "row fallback",
			sys:  noVec,
			sql:  "SELECT region, COUNT(*), SUM(amount) FROM orders WHERE amount > 1 GROUP BY region",
			want: `estimated cost=290.9 rows=291
execution: row-at-a-time
SCAN ORDERS rows=291/400 pushdown=[AMOUNT > 1] (analyzed) encoding=dict(region:3)
`,
			wantAnalyze: `estimated cost=290.9 rows=291
actual rows=3 time=<t>
execution: row-at-a-time
SCAN ORDERS rows=291/400 pushdown=[AMOUNT > 1] (analyzed) encoding=dict(region:3) (actual rows=289 time=<t>)
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sys.AdminSession()
			res, err := s.Query("EXPLAIN " + tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := planText(res); got != tc.want {
				t.Fatalf("EXPLAIN mismatch:\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
			res, err = s.Query("EXPLAIN ANALYZE " + tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := planText(res); got != tc.wantAnalyze {
				t.Fatalf("EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, tc.wantAnalyze)
			}
		})
	}
}

// TestExplainAnalyzeDB2Route covers the statement EXPLAIN ANALYZE can only
// time as a whole: a DB2-routed SELECT has no accelerator plan tree, so the
// output is the routing summary plus total actual rows and time.
func TestExplainAnalyzeDB2Route(t *testing.T) {
	sys := idaax.New(idaax.Config{})
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE plain (id BIGINT, v DOUBLE)")
	s.MustExec("INSERT INTO plain VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
	res, err := s.Query("EXPLAIN ANALYZE SELECT * FROM plain WHERE id > 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1] != "DB2" {
		t.Fatalf("routed to %s, want DB2", res.Rows[0][1])
	}
	got := planText(res)
	want := "execution: DB2 row engine (no accelerator plan)\nactual rows=2 time=<t>\n"
	if got != want {
		t.Fatalf("DB2 EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestObservabilityMixedWorkload is the acceptance test for the metrics
// registry and query history: a workload mixing queries, DML, analytics CALLs
// and a live rebalance must be visible through System.QueryHistory,
// System.ObservabilityReport, SYSPROC.ACCEL_METRICS and
// SYSPROC.ACCEL_QUERY_HISTORY.
func TestObservabilityMixedWorkload(t *testing.T) {
	sys := newShardedSystem(t, 2)
	seedJoinTables(t, sys, "SHARDS")
	sys.SetSlowQueryThreshold(time.Nanosecond) // capture every statement's trace
	s := sys.AdminSession()

	s.MustExec("SELECT c.segment, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c ON o.customer_id = c.id GROUP BY c.segment")
	s.MustExec("SELECT COUNT(*) FROM orders WHERE customer_id = 7")
	s.MustExec("INSERT INTO lookup VALUES ('LATAM', 1.1)")
	if _, err := s.Exec("CALL IDAX.SUMMARY('ORDERS', 'AMOUNT')"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddShardMember("SHARDS", "IDAA9", 2); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitForRebalance("SHARDS"); err != nil {
		t.Fatal(err)
	}

	// Query history: every statement class recorded, newest first, with traces.
	hist := sys.QueryHistory(0)
	if len(hist) < 4 {
		t.Fatalf("history has %d records, want >= 4", len(hist))
	}
	classes := map[string]bool{}
	for _, rec := range hist {
		classes[rec.Class] = true
	}
	for _, want := range []string{"select", "dml", "call"} {
		if !classes[want] {
			t.Fatalf("history missing class %q: %v", want, classes)
		}
	}
	slow := sys.SlowQueries(0)
	if len(slow) == 0 {
		t.Fatal("slow-query log is empty despite 1ns threshold")
	}
	foundScanTrace := false
	for _, rec := range slow {
		if strings.Contains(rec.Trace, "scan") {
			foundScanTrace = true
		}
	}
	if !foundScanTrace {
		t.Fatalf("no slow-query trace contains a scan span: %+v", slow[0])
	}

	// Metrics registry: statement counters, class histograms, fleet gauges.
	rep := sys.ObservabilityReport()
	if rep.Counters["stmt_total"] < 4 {
		t.Fatalf("stmt_total = %d, want >= 4", rep.Counters["stmt_total"])
	}
	if rep.Histograms["stmt_seconds_select"].Count == 0 {
		t.Fatal("no select latency histogram samples")
	}
	if rep.Gauges["shard_rows_migrated"] == 0 {
		t.Fatal("rebalance did not surface in shard_rows_migrated gauge")
	}
	if rep.Gauges["accel_queries"] == 0 {
		t.Fatal("accelerator activity missing from gauges")
	}
	text := sys.MetricsText()
	for _, want := range []string{"stmt_total", "shard_rows_migrated", `stmt_seconds_select{quantile="0.95"}`} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}

	// The SQL surface sees the same data.
	res, err := s.Query("CALL SYSPROC.ACCEL_METRICS()")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 10 {
		t.Fatalf("ACCEL_METRICS returned %d rows", len(res.Rows))
	}
	res, err = s.Query("CALL SYSPROC.ACCEL_QUERY_HISTORY(100)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 4 {
		t.Fatalf("ACCEL_QUERY_HISTORY returned %d rows", len(res.Rows))
	}
	res, err = s.Query("CALL SYSPROC.ACCEL_QUERY_HISTORY(100, 'SLOW')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("ACCEL_QUERY_HISTORY(..., 'SLOW') returned no rows")
	}

	// Rebalance progress surfaced in the status struct.
	st, err := sys.RebalanceStatus("SHARDS")
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsMigrated == 0 {
		t.Fatal("rebalance moved no rows")
	}
}

// TestQueryHistoryShowsCallersOwnStatements pins that
// SYSPROC.ACCEL_QUERY_HISTORY shows a caller other than SYSADM only the
// statements it ran itself, in both forms: statement text carries its
// literals. The filter runs before the cut to n, so a caller's own statement
// is not crowded out by newer ones of other users. SYSADM sees everything.
func TestQueryHistoryShowsCallersOwnStatements(t *testing.T) {
	sys := idaax.New(idaax.Config{})
	defer sys.Close()
	sys.SetSlowQueryThreshold(time.Nanosecond) // every statement is also "slow"
	stranger := sys.Session("STRANGER")
	if _, err := stranger.Exec("SELECT * FROM pay"); err == nil {
		t.Fatal("STRANGER read a table that does not exist yet")
	}
	alice := sys.Session("ALICE")
	alice.MustExec("CREATE TABLE pay (id BIGINT, ssn VARCHAR(11)) IN ACCELERATOR IDAA1")
	alice.MustExec("INSERT INTO pay VALUES (1, '123-45-6789')")

	history := func(s *idaax.Session, call string) *idaax.Result {
		t.Helper()
		res, err := s.Query(call)
		if err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		return res
	}
	for _, call := range []string{"CALL SYSPROC.ACCEL_QUERY_HISTORY(5)", "CALL SYSPROC.ACCEL_QUERY_HISTORY(1, 'SLOW')"} {
		res := history(stranger, call)
		if len(res.Rows) != 1 {
			t.Fatalf("STRANGER %s: %d rows, want its own statement only: %v", call, len(res.Rows), res.Rows)
		}
		for _, row := range res.Rows {
			if strings.Contains(strings.Join(row, " "), "123-45-6789") || row[2] != "STRANGER" {
				t.Errorf("STRANGER %s returned %v", call, row)
			}
		}
	}
	if res := history(alice, "CALL SYSPROC.ACCEL_QUERY_HISTORY(5)"); len(res.Rows) != 2 || !strings.Contains(res.Rows[0][1], "123-45-6789") {
		t.Errorf("ALICE sees %v, want her INSERT and CREATE only", res.Rows)
	}
	users := map[string]bool{}
	for _, row := range history(sys.AdminSession(), "CALL SYSPROC.ACCEL_QUERY_HISTORY(0)").Rows {
		users[row[2]] = true
	}
	for _, u := range []string{"STRANGER", "ALICE"} {
		if !users[u] {
			t.Errorf("SYSADM does not see %s's statements: %v", u, users)
		}
	}
}

// TestStatsHammerRace drives queries and DML from several goroutines while
// others poll every stats surface. Run with -race it proves the counters the
// observability layer reads are all atomic or lock-guarded.
func TestStatsHammerRace(t *testing.T) {
	sys := newShardedSystem(t, 2)
	seedJoinTables(t, sys, "SHARDS")
	sys.SetSlowQueryThreshold(time.Millisecond)

	const writers, iters = 4, 30
	var workers sync.WaitGroup
	for w := 0; w < writers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			s := sys.AdminSession()
			for i := 0; i < iters; i++ {
				if _, err := s.Query("SELECT c.segment, COUNT(*) FROM orders o JOIN customers c ON o.customer_id = c.id GROUP BY c.segment"); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Exec("SELECT COUNT(*) FROM orders WHERE customer_id = 7"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	workers.Add(1)
	go func() {
		defer workers.Done()
		s := sys.AdminSession()
		for i := 0; i < iters; i++ {
			if _, err := s.Exec("CALL SYSPROC.ACCEL_METRICS()"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// The poller reads every stats surface until the workload finishes.
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys.ObservabilityReport()
			sys.MetricsText()
			sys.QueryHistory(10)
			sys.SlowQueries(10)
			if _, err := sys.AcceleratorStats("IDAA1"); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.ShardGroupStats("SHARDS"); err != nil {
				t.Error(err)
				return
			}
			sys.Metrics()
		}
	}()

	workers.Wait()
	close(stop)
	poller.Wait()
}
