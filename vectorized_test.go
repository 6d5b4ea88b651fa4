package idaax_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"idaax"
)

// seedVectorTable creates an accelerator-only table with NULLs in several
// columns so the differential queries exercise NULL semantics end to end.
func seedVectorTable(t *testing.T, sys *idaax.System, accelerator, distribute string, rows int) {
	t.Helper()
	s := sys.AdminSession()
	ddl := fmt.Sprintf(
		"CREATE TABLE vdiff (id BIGINT NOT NULL, grp BIGINT, cat VARCHAR(8), v DOUBLE, flag BOOLEAN) IN ACCELERATOR %s%s",
		accelerator, distribute)
	if _, err := s.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO vdiff VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		grp := fmt.Sprintf("%d", i%7)
		cat := fmt.Sprintf("'c%d'", i%5)
		v := fmt.Sprintf("%g", float64((i*13)%400)/4-20)
		flag := "TRUE"
		if i%3 == 0 {
			flag = "FALSE"
		}
		switch i % 17 {
		case 2:
			grp = "NULL"
		case 5:
			cat = "NULL"
		case 9:
			v = "NULL"
		case 12:
			flag = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, %s, %s, %s)", i, grp, cat, v, flag)
	}
	if _, err := s.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// sortedFingerprint renders a result order-insensitively (the differential
// corpus mixes ordered and unordered statements; ordered ones are compared
// with resultFingerprint too, which keeps row order).
func sortedFingerprint(res *idaax.Result) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		lines[i] = strings.Join(row, "|")
	}
	sort.Strings(lines)
	return strings.Join(res.Columns, ",") + "\n" + strings.Join(lines, "\n")
}

// checkExplainMatchesTrace runs EXPLAIN for sql and then sql itself, and
// checks that EXPLAIN's execution line names what ran. With the engine on,
// every "mode=vectorized:<mode>" label on the executed trace's scan and join
// spans must equal EXPLAIN's mode; a statement no batch plan runs carries no
// label, and EXPLAIN then reports plain batch scans ("scan"). Spans under a
// "subquery" span belong to the subquery's own plan and are skipped. With the
// engine off there is neither a vectorized line nor a label. sys must capture
// every statement's trace (a 1ns slow-query threshold). It returns the
// statement's result.
func checkExplainMatchesTrace(t *testing.T, sys *idaax.System, s *idaax.Session, sql string, vectorized bool) *idaax.Result {
	t.Helper()
	plan, err := s.Query("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	explained := ""
	for _, row := range plan.Rows {
		line := strings.TrimSpace(row[3])
		if mode, ok := strings.CutPrefix(line, "execution: vectorized ("); ok {
			explained = strings.TrimSuffix(mode, ")")
		}
	}
	res, err := s.Query(sql)
	if err != nil {
		t.Fatalf("%s (vectorized=%v): %v", sql, vectorized, err)
	}
	slow := sys.SlowQueries(1)
	if len(slow) == 0 || slow[0].SQL != sql {
		t.Fatalf("%s: no trace captured", sql)
	}
	traced := map[string]bool{}
	skipBelow := -1 // indentation of the enclosing subquery span, -1 outside one
	for _, line := range strings.Split(slow[0].Trace, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		depth := len(line) - len(strings.TrimLeft(line, " "))
		if skipBelow >= 0 && depth > skipBelow {
			continue
		}
		skipBelow = -1
		if fields[0] == "subquery" {
			skipBelow = depth
			continue
		}
		for _, f := range fields[1:] {
			if mode, ok := strings.CutPrefix(f, "mode=vectorized:"); ok {
				traced[mode] = true
			}
		}
	}
	switch {
	case !vectorized:
		if explained != "" || len(traced) > 0 {
			t.Errorf("%s: engine off, but EXPLAIN says %q and the trace ran %v", sql, explained, traced)
		}
	case len(traced) == 0:
		if explained != "scan" {
			t.Errorf("%s: no batch plan ran, but EXPLAIN says vectorized (%s)", sql, explained)
		}
	case len(traced) > 1 || !traced[explained]:
		t.Errorf("%s: EXPLAIN says vectorized (%s), the trace ran %v", sql, explained, traced)
	}
	return res
}

// vectorizedDifferentialQueries is the end-to-end SQL corpus: vector filters,
// residual fallbacks, vectorized aggregation, row-path fallbacks, NULLs,
// empty results, DISTINCT/ORDER BY/LIMIT above the batch scan.
var vectorizedDifferentialQueries = []struct {
	sql     string
	ordered bool
}{
	{"SELECT * FROM vdiff", false},
	{"SELECT id, v FROM vdiff WHERE v > 30 AND id < 900", false},
	{"SELECT id FROM vdiff WHERE cat = 'c2'", false},
	{"SELECT id FROM vdiff WHERE cat <> 'c0' AND v <= 10", false},
	{"SELECT id FROM vdiff WHERE id BETWEEN 100 AND 180", false},
	{"SELECT id FROM vdiff WHERE v IS NULL", false},
	{"SELECT id, cat FROM vdiff WHERE cat IS NOT NULL AND flag = TRUE", false},
	{"SELECT id FROM vdiff WHERE grp IN (1, 3) AND v > 0", false},
	{"SELECT id FROM vdiff WHERE cat LIKE 'c%' AND id >= 10 AND id < 400", false},
	{"SELECT id FROM vdiff WHERE id = 123456", false},
	// Kind-incomparable comparisons: the scan predicate drops every row on
	// both engines (types.Compare rejects the combination), before the WHERE
	// re-evaluation could raise an error.
	{"SELECT id FROM vdiff WHERE flag = 1", false},
	{"SELECT id FROM vdiff WHERE v = TRUE", false},
	{"SELECT id FROM vdiff WHERE cat BETWEEN 1 AND 5", false},
	{"SELECT id FROM vdiff WHERE id < '200'", false},
	{"SELECT DISTINCT cat FROM vdiff WHERE v > 0", false},
	{"SELECT id, v FROM vdiff WHERE v > 40 ORDER BY v DESC, id LIMIT 11", true},
	{"SELECT COUNT(*) FROM vdiff", true},
	{"SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM vdiff", true},
	{"SELECT COUNT(*), SUM(v) FROM vdiff WHERE id > 500000", true},
	{"SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM vdiff GROUP BY grp", false},
	{"SELECT grp, cat, COUNT(*) FROM vdiff GROUP BY grp, cat", false},
	{"SELECT flag, COUNT(*), MIN(cat), MAX(cat) FROM vdiff GROUP BY flag", false},
	{"SELECT grp, STDDEV(v) FROM vdiff WHERE v IS NOT NULL GROUP BY grp", false},
	{"SELECT v, COUNT(*), MIN(id) FROM vdiff GROUP BY v", false},
	{"SELECT cat, COUNT(*), SUM(grp) FROM vdiff GROUP BY cat", false},
	{"SELECT grp, COUNT(*) AS n FROM vdiff GROUP BY grp HAVING COUNT(*) > 50 ORDER BY grp", true},
	{"SELECT grp, COUNT(DISTINCT cat) FROM vdiff GROUP BY grp ORDER BY grp", true},
	{"SELECT grp, SUM(v) FROM vdiff WHERE cat <> 'c3' GROUP BY grp ORDER BY grp", true},
	{"SELECT v2.cat, COUNT(*) FROM (SELECT cat FROM vdiff WHERE v > 0) v2 GROUP BY v2.cat", false},
}

// TestVectorizedDifferentialSQL is the end-to-end acceptance test on a single
// accelerator: every statement returns identical results with the vectorized
// engine on and off, and the engine actually executes (VectorizedQueries
// advances only while it is on).
func TestVectorizedDifferentialSQL(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	seedVectorTable(t, sys, "IDAA1", "", 1000)
	sys.SetSlowQueryThreshold(time.Nanosecond)
	s := sys.AdminSession()

	results := map[bool][]string{}
	for _, vectorized := range []bool{true, false} {
		sys.SetVectorizedExecution(vectorized)
		before, err := sys.AcceleratorStats("")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range vectorizedDifferentialQueries {
			res := checkExplainMatchesTrace(t, sys, s, q.sql, vectorized)
			fp := sortedFingerprint(res)
			if q.ordered {
				fp = resultFingerprint(res)
			}
			results[vectorized] = append(results[vectorized], fp)
		}
		after, err := sys.AcceleratorStats("")
		if err != nil {
			t.Fatal(err)
		}
		ran := after.VectorizedQueries - before.VectorizedQueries
		if vectorized && ran == 0 {
			t.Fatal("vectorized engine enabled but no statement ran vectorized")
		}
		if !vectorized && ran != 0 {
			t.Fatalf("vectorized engine disabled but %d statements ran vectorized", ran)
		}
	}
	for i, q := range vectorizedDifferentialQueries {
		if results[true][i] != results[false][i] {
			t.Errorf("%s: engines disagree\nvectorized:\n%s\nrow:\n%s",
				q.sql, results[true][i], results[false][i])
		}
	}
}

// TestVectorizedExplain pins the EXPLAIN surface: the plan reports the
// vectorized execution mode, and flipping the A/B switch flips the line.
func TestVectorizedExplain(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	seedVectorTable(t, sys, "IDAA1", "", 100)
	s := sys.AdminSession()

	planText := func(sql string) string {
		res, err := s.Query("EXPLAIN " + sql)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", sql, err)
		}
		var sb strings.Builder
		for _, row := range res.Rows {
			sb.WriteString(row[3] + "\n")
		}
		return sb.String()
	}

	cases := map[string]string{
		"SELECT grp, COUNT(*), SUM(v) FROM vdiff WHERE v > 0 GROUP BY grp": "execution: vectorized (scan+filter+aggregate)",
		"SELECT id FROM vdiff WHERE v > 0 AND cat LIKE 'c%'":               "execution: vectorized (scan+filter)",
		"SELECT grp, COUNT(*) FROM vdiff GROUP BY grp ORDER BY grp":        "execution: vectorized (scan)",
		"SELECT a.id FROM vdiff a, vdiff b WHERE a.id = b.id":              "execution: vectorized (hash-join)",
	}
	for sql, want := range cases {
		if out := planText(sql); !strings.Contains(out, want) {
			t.Errorf("EXPLAIN %s: missing %q in:\n%s", sql, want, out)
		}
	}

	sys.SetVectorizedExecution(false)
	out := planText("SELECT grp, COUNT(*) FROM vdiff GROUP BY grp")
	if !strings.Contains(out, "execution: row-at-a-time") {
		t.Errorf("EXPLAIN with engine off: missing row-at-a-time line in:\n%s", out)
	}
}

// TestVectorizedShardedDifferential runs the corpus against a 3-shard fleet:
// scatter-gather, two-phase partial aggregation and pruned routing must all
// return identical results with the members' vectorized engines on and off.
func TestVectorizedShardedDifferential(t *testing.T) {
	sys := newShardedSystem(t, 3)
	defer sys.Close()
	seedVectorTable(t, sys, "SHARDS", " DISTRIBUTE BY HASH(id)", 1200)
	sys.SetSlowQueryThreshold(time.Nanosecond)
	s := sys.AdminSession()

	queries := append([]struct {
		sql     string
		ordered bool
	}{
		{"SELECT * FROM vdiff WHERE id = 77", false}, // pruned to one shard
		{"SELECT COUNT(*) FROM vdiff WHERE id IN (5, 600, 1199)", true},
		{"SELECT grp, COUNT(*), SUM(v), AVG(v) FROM vdiff WHERE cat <> 'c1' GROUP BY grp", false}, // two-phase
	}, vectorizedDifferentialQueries...)

	results := map[bool][]string{}
	for _, vectorized := range []bool{true, false} {
		sys.SetVectorizedExecution(vectorized)
		for _, q := range queries {
			res := checkExplainMatchesTrace(t, sys, s, q.sql, vectorized)
			fp := sortedFingerprint(res)
			if q.ordered {
				fp = resultFingerprint(res)
			}
			results[vectorized] = append(results[vectorized], fp)
		}
	}
	for i, q := range queries {
		if results[true][i] != results[false][i] {
			t.Errorf("%s: sharded engines disagree\nvectorized:\n%s\nrow:\n%s",
				q.sql, results[true][i], results[false][i])
		}
	}

	stats, err := sys.ShardGroupStats("")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Group.VectorizedQueries == 0 {
		t.Fatal("no shard-side statement ran vectorized during the sharded differential")
	}
}

// TestVectorizedScanDuringRebalance races batch scans against a live
// rebalance: while rows migrate between shards, vectorized aggregates must
// keep seeing every row exactly once.
func TestVectorizedScanDuringRebalance(t *testing.T) {
	const rows = 4000
	sys := newShardedSystem(t, 3)
	defer sys.Close()
	seedElasticTable(t, sys, "SHARDS", rows)
	sys.SetVectorizedExecution(true)
	s := sys.AdminSession()

	wantCount, err := s.Query("SELECT COUNT(*), SUM(id) FROM metrics")
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(wantCount)

	if err := sys.AddShardMember("", "IDAA4", 2); err != nil {
		t.Fatal(err)
	}
	// Query continuously while the migration runs; every snapshot must agree.
	checks := 0
	for {
		status, err := sys.RebalanceStatus("")
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Query("SELECT COUNT(*), SUM(id) FROM metrics")
		if err != nil {
			t.Fatal(err)
		}
		if got := resultFingerprint(res); got != want {
			t.Fatalf("aggregate drifted during rebalance (check %d):\n%s\nvs\n%s", checks, got, want)
		}
		checks++
		if !status.Active {
			break
		}
	}
	if err := sys.WaitForRebalance(""); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT region, COUNT(*), SUM(amount) FROM metrics GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	sys.SetVectorizedExecution(false)
	rowRes, err := s.Query("SELECT region, COUNT(*), SUM(amount) FROM metrics GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(res) != resultFingerprint(rowRes) {
		t.Fatalf("post-rebalance group-by differs between engines:\n%s\nvs\n%s",
			resultFingerprint(res), resultFingerprint(rowRes))
	}
}

// plainSelectQueries are the non-aggregate single-table shapes the shard-local
// gather path (filter once on the shard, WHERE stripped at the coordinator)
// and the bound projection must keep exact. Every statement is deterministic
// as a set; the ordered ones also as a sequence.
var plainSelectQueries = []struct {
	sql     string
	ordered bool
}{
	// Projection shapes.
	{"SELECT v, cat, id, flag, grp FROM vdiff", false},
	{"SELECT id, id FROM vdiff WHERE id < 40", false},
	{"SELECT * FROM vdiff WHERE grp = 3", false},
	{"SELECT vdiff.* FROM vdiff WHERE v < -10", false},
	{"SELECT t.*, t.id AS again FROM vdiff t WHERE t.cat = 'c1' AND t.v > 50", false},
	{"SELECT id AS k, cat label, v * 2 AS dbl FROM vdiff WHERE id >= 100 AND id < 140", false},
	{"SELECT id, v + 1, cat, grp * 10 + 1, 'lit', flag FROM vdiff WHERE id < 60", false},
	{"SELECT id, COALESCE(cat, 'none'), CASE WHEN v > 0 THEN 'pos' ELSE 'neg' END FROM vdiff WHERE id < 90", false},
	// ORDER BY, LIMIT/OFFSET, DISTINCT above the gather.
	{"SELECT cat FROM vdiff WHERE id < 300 ORDER BY id", true},
	{"SELECT id FROM vdiff WHERE v IS NOT NULL ORDER BY v DESC, id", true},
	{"SELECT id, cat FROM vdiff ORDER BY id LIMIT 25 OFFSET 40", true},
	{"SELECT id FROM vdiff WHERE id >= 500 ORDER BY id DESC LIMIT 7", true},
	{"SELECT id FROM vdiff ORDER BY id LIMIT 5 OFFSET 100000", true},
	{"SELECT DISTINCT grp, flag FROM vdiff", false},
	{"SELECT DISTINCT cat FROM vdiff WHERE grp IS NULL ORDER BY cat", true},
	// Residual predicates: evaluated row-wise on the shard, after the vector ones.
	{"SELECT id FROM vdiff WHERE grp + 1 > 3", false},
	{"SELECT id FROM vdiff WHERE id < 700 AND grp + 1 > 3 AND v >= 0", false},
	{"SELECT id FROM vdiff WHERE grp IN (1, 3, 5) AND cat IN ('c0', 'c4')", false},
	{"SELECT id FROM vdiff WHERE cat = 'c2' OR v > 70 OR grp IS NULL", false},
	{"SELECT id FROM vdiff WHERE NOT (v > 0) AND id BETWEEN 10 AND 900", false},
	{"SELECT id FROM vdiff WHERE cat LIKE '%3' AND flag = FALSE", false},
	{"SELECT id FROM vdiff WHERE id % 2 = 0 AND id < 50", false},
	// NULL keys: NULL never matches =, IN or a range; IS NULL finds it.
	{"SELECT id FROM vdiff WHERE grp = NULL", false},
	{"SELECT id, grp FROM vdiff WHERE grp IS NULL", false},
	{"SELECT id FROM vdiff WHERE grp IN (NULL, 2)", false},
	{"SELECT id FROM vdiff WHERE grp >= 0 AND grp < 2", false},
	{"SELECT id FROM vdiff WHERE grp = 6", false},
	// Empty results keep their columns.
	{"SELECT id, v FROM vdiff WHERE id < 0", false},
	{"SELECT * FROM vdiff WHERE cat = 'nope'", false},
	{"SELECT id FROM vdiff WHERE id = 5 AND id = 6", false},
	{"SELECT id FROM vdiff WHERE grp = 99", false},
	// Aggregates the two-phase planner declines still gather filtered rows.
	{"SELECT COUNT(DISTINCT cat), COUNT(*) FROM vdiff WHERE v > 0", true},
}

// TestPlainSelectDifferential extends both differential suites to the plain
// select shapes: a single accelerator, a 3-shard fleet hashed on a NOT NULL
// key and a 3-shard fleet hashed on a key with NULLs must return the same
// rows, each with the vectorized engine on and off — six executions per
// statement, one answer.
func TestPlainSelectDifferential(t *testing.T) {
	const rows = 1500
	fleets := []struct {
		name, accelerator, distribute string
		sys                           *idaax.System
	}{
		{"single", "IDAA1", "", newTestSystem(t)},
		{"sharded by id", "SHARDS", " DISTRIBUTE BY HASH(id)", newShardedSystem(t, 3)},
		{"sharded by grp", "SHARDS", " DISTRIBUTE BY HASH(grp)", newShardedSystem(t, 3)},
	}
	fingerprint := func(sys *idaax.System, q struct {
		sql     string
		ordered bool
	}, label string) string {
		res, err := sys.AdminSession().Query(q.sql)
		if err != nil {
			t.Fatalf("%s (%s): %v", q.sql, label, err)
		}
		if q.ordered {
			return resultFingerprint(res)
		}
		return sortedFingerprint(res)
	}
	var want []string
	for fi, f := range fleets {
		defer f.sys.Close()
		seedVectorTable(t, f.sys, f.accelerator, f.distribute, rows)
		for _, vectorized := range []bool{true, false} {
			f.sys.SetVectorizedExecution(vectorized)
			label := fmt.Sprintf("%s, vectorized=%v", f.name, vectorized)
			for qi, q := range plainSelectQueries {
				got := fingerprint(f.sys, q, label)
				if fi == 0 && vectorized {
					want = append(want, got)
				} else if got != want[qi] {
					t.Errorf("%s: %s disagrees with the vectorized single accelerator\n--- got ---\n%s\n--- want ---\n%s", q.sql, label, got, want[qi])
				}
			}
		}
		f.sys.SetVectorizedExecution(true)
	}
	if rowsSeen := strings.Count(want[0], "\n"); rowsSeen != rows {
		t.Fatalf("the full-table statement returned %d rows, want %d", rowsSeen, rows)
	}

	// The gather path never takes the coordinator-side filter: every shard
	// answers with the batch engine, nothing falls back.
	stats, err := fleets[1].sys.ShardGroupStats("")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Group.VectorizedQueries == 0 || stats.Group.VexecFallbacks != 0 {
		t.Fatalf("sharded run: %d vectorized shard scans, %d fallbacks", stats.Group.VectorizedQueries, stats.Group.VexecFallbacks)
	}

	// One more pass racing a live rebalance: while a fourth member takes over
	// its share of the rows, every statement still sees each row exactly once.
	racing := fleets[1].sys
	if err := racing.AddShardMember("", "IDAA4", 2); err != nil {
		t.Fatal(err)
	}
	for pass, active := 0, true; active || pass < 2; pass++ {
		status, err := racing.RebalanceStatus("")
		if err != nil {
			t.Fatal(err)
		}
		active = status.Active
		for qi, q := range plainSelectQueries {
			if got := fingerprint(racing, q, "during rebalance"); got != want[qi] {
				t.Fatalf("%s: drifted during the rebalance (pass %d)\n--- got ---\n%s\n--- want ---\n%s", q.sql, pass, got, want[qi])
			}
		}
	}
	if err := racing.WaitForRebalance(""); err != nil {
		t.Fatal(err)
	}
}
