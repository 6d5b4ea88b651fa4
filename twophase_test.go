package idaax_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"idaax"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
)

// seedTwoPhaseTables creates the two-phase corpus tables. TP has NULLs in its
// grouping columns (G, S) and in X, a group whose X is all NULL (G = 6), and
// exactly representable floats so sums agree bit for bit in any order.
// TP_ONE holds one row, so at least two of three members contribute an empty
// partial; TP_EMPTY holds none.
func seedTwoPhaseTables(t *testing.T, sys *idaax.System, accelerator, tpDistribute string) {
	t.Helper()
	s := sys.AdminSession()
	shardedBy := func(col string) string {
		if accelerator == "IDAA1" {
			return ""
		}
		return " DISTRIBUTE BY HASH(" + col + ")"
	}
	for _, ddl := range []string{
		fmt.Sprintf("CREATE TABLE tp (id BIGINT NOT NULL, g BIGINT, h BIGINT, s VARCHAR(8), x DOUBLE, n BIGINT) IN ACCELERATOR %s%s", accelerator, tpDistribute),
		fmt.Sprintf("CREATE TABLE tp_one (id BIGINT NOT NULL, s VARCHAR(8), x DOUBLE) IN ACCELERATOR %s%s", accelerator, shardedBy("id")),
		fmt.Sprintf("CREATE TABLE tp_empty (id BIGINT NOT NULL, g BIGINT, s VARCHAR(8), x DOUBLE) IN ACCELERATOR %s%s", accelerator, shardedBy("id")),
	} {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO tp VALUES ")
	for i := 0; i < 1200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		g := fmt.Sprint(i % 7)
		sv := fmt.Sprintf("'s%d'", i%5)
		x := fmt.Sprint(float64(i%40)*0.25 - 3)
		switch {
		case i%7 == 6:
			x = "NULL"
		case i%13 == 4:
			g = "NULL"
		case i%11 == 3:
			sv = "NULL"
		case i%17 == 8:
			x = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, %d, %s, %s, %d)", i, g, i%3, sv, x, (i*7)%50-10)
	}
	if _, err := s.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO tp_one VALUES (1, 'only', 2.5)"); err != nil {
		t.Fatal(err)
	}
}

// twoPhaseQueries is the two-phase corpus: every statement is a grouped or
// global aggregate the router splits into member partials, a coordinator
// merge and a plain final statement. Ordered statements are compared row by
// row, the others as multisets.
var twoPhaseQueries = []struct {
	sql     string
	ordered bool
}{
	// NULL group keys, an all-NULL group, every mergeable aggregate.
	{"SELECT g, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) FROM tp GROUP BY g", false},
	{"SELECT s, COUNT(*), SUM(n), AVG(n), MIN(n), MAX(n), MIN(s), MAX(s) FROM tp GROUP BY s", false},
	{"SELECT x, COUNT(*), SUM(n) FROM tp GROUP BY x", false},
	// Multi-column keys and grouping expressions.
	{"SELECT g, h, COUNT(*), SUM(x) FROM tp GROUP BY g, h", false},
	{"SELECT s, g, MIN(x), MAX(n) FROM tp WHERE h <> 1 GROUP BY s, g", false},
	{"SELECT h + 1, COUNT(*) FROM tp GROUP BY h + 1", false},
	// Expressions over merged aggregates.
	{"SELECT g, SUM(n) + COUNT(*) * 2, MAX(x) - MIN(x), AVG(x) * 2 FROM tp GROUP BY g", false},
	// HAVING, including on aggregates absent from the select list.
	{"SELECT g, SUM(n) FROM tp GROUP BY g HAVING MAX(x) > 2", false},
	{"SELECT g, COUNT(*) AS c FROM tp GROUP BY g HAVING COUNT(*) > 150 AND AVG(x) IS NOT NULL", false},
	{"SELECT COUNT(*) FROM tp HAVING SUM(x) > 0", true},
	// ORDER BY alias, ordinal, group expression and aggregate, ASC and DESC.
	{"SELECT g, SUM(n) AS total FROM tp GROUP BY g ORDER BY total DESC, g", true},
	{"SELECT s, h, COUNT(*) FROM tp GROUP BY s, h ORDER BY 3 DESC, 1, 2", true},
	{"SELECT g, h, MAX(x) FROM tp GROUP BY g, h ORDER BY h DESC, g", true},
	{"SELECT g FROM tp GROUP BY g ORDER BY SUM(n) DESC, g", true},
	{"SELECT h, AVG(x) AS a FROM tp GROUP BY h ORDER BY MIN(n), a DESC", true},
	{"SELECT s, MAX(s) AS top FROM tp GROUP BY s ORDER BY top DESC, s", true},
	// Top-k: ties at the k-th row, LIMIT 0, LIMIT >= groups, OFFSET.
	{"SELECT g, COUNT(*) AS c FROM tp GROUP BY g ORDER BY c DESC, g LIMIT 3", true},
	{"SELECT h FROM tp GROUP BY g, h ORDER BY h DESC LIMIT 5", true},
	{"SELECT g, h, SUM(n) AS t FROM tp GROUP BY g, h ORDER BY t DESC, g, h LIMIT 4", true},
	{"SELECT g, SUM(x) FROM tp GROUP BY g ORDER BY g LIMIT 0", true},
	{"SELECT g, SUM(x) FROM tp GROUP BY g ORDER BY g LIMIT 100", true},
	{"SELECT g, h, SUM(n) FROM tp GROUP BY g, h ORDER BY g DESC, h LIMIT 5 OFFSET 3", true},
	{"SELECT g, SUM(n) FROM tp GROUP BY g ORDER BY g LIMIT 5 OFFSET 50", true},
	{"SELECT x, COUNT(*) FROM tp GROUP BY x ORDER BY x LIMIT 7", true},
	// DISTINCT over the merged groups.
	{"SELECT DISTINCT h FROM tp GROUP BY g, h ORDER BY h", true},
	{"SELECT DISTINCT MAX(h), MIN(h) FROM tp GROUP BY g", false},
	// Global aggregates, an empty member, an empty table.
	{"SELECT COUNT(*), SUM(n), AVG(x), MIN(s), MAX(x) FROM tp WHERE h = 1", true},
	{"SELECT COUNT(*), SUM(x) FROM tp WHERE n < -100", true},
	{"SELECT s, COUNT(*), SUM(x), AVG(x) FROM tp_one GROUP BY s", false},
	{"SELECT COUNT(*), MIN(s), MAX(x) FROM tp_one", true},
	{"SELECT COUNT(*), SUM(x), AVG(x), MIN(s), MAX(g) FROM tp_empty", true},
	{"SELECT g, COUNT(*) FROM tp_empty GROUP BY g", false},
}

// typedFingerprint renders a relation with its column names and kinds and
// every value's kind, so a differential catches a type change the rendered
// text would hide.
func typedFingerprint(rel *relalg.Relation, ordered bool) string {
	cols := make([]string, len(rel.Cols))
	for i, c := range rel.Cols {
		cols[i] = c.Name + ":" + c.Kind.String()
	}
	lines := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.Kind.String() + "=" + v.String()
		}
		lines[i] = strings.Join(cells, "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(cols, ",") + "\n" + strings.Join(lines, "\n")
}

// TestTwoPhaseDifferential runs the two-phase corpus on a single accelerator
// and on two 3-shard fleets — hashed on a NOT NULL key and on a nullable
// grouping key — each with the vectorized engine on and off: every execution
// must return the single vectorized accelerator's column names, kinds and
// rows. On the fleets every statement must run two-phase with one partial per
// member. A last pass races a live AddShardMember.
func TestTwoPhaseDifferential(t *testing.T) {
	fleets := []struct {
		name, accelerator, distribute string
		sys                           *idaax.System
	}{
		{"single", "IDAA1", "", newTestSystem(t)},
		{"sharded by id", "SHARDS", " DISTRIBUTE BY HASH(id)", newShardedSystem(t, 3)},
		{"sharded by g", "SHARDS", " DISTRIBUTE BY HASH(g)", newShardedSystem(t, 3)},
	}
	sels := make([]*sqlparse.SelectStmt, len(twoPhaseQueries))
	for i, q := range twoPhaseQueries {
		st, err := sqlparse.Parse(q.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", q.sql, err)
		}
		sels[i] = st.(*sqlparse.SelectStmt)
	}
	run := func(sys *idaax.System, accelerator string, qi int, label string) string {
		backend, err := sys.Coordinator().Accelerator(accelerator)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := backend.QueryTraced(0, sels[qi], nil)
		if err != nil {
			t.Fatalf("%s (%s): %v", twoPhaseQueries[qi].sql, label, err)
		}
		return typedFingerprint(rel, twoPhaseQueries[qi].ordered)
	}

	var want []string
	for fi, f := range fleets {
		defer f.sys.Close()
		seedTwoPhaseTables(t, f.sys, f.accelerator, f.distribute)
		for _, vectorized := range []bool{true, false} {
			f.sys.SetVectorizedExecution(vectorized)
			label := fmt.Sprintf("%s, vectorized=%v", f.name, vectorized)
			for qi, q := range twoPhaseQueries {
				var before idaax.ShardGroupStats
				if fi > 0 {
					before = shardStats(t, f.sys)
				}
				got := run(f.sys, f.accelerator, qi, label)
				if fi == 0 && vectorized {
					want = append(want, got)
				} else if got != want[qi] {
					t.Errorf("%s: %s disagrees with the vectorized single accelerator\n--- got ---\n%s\n--- want ---\n%s", q.sql, label, got, want[qi])
				}
				if fi == 0 {
					continue
				}
				after := shardStats(t, f.sys)
				twoPhase := after.TwoPhaseAggregates - before.TwoPhaseAggregates
				partials := after.TwoPhaseFrames - before.TwoPhaseFrames
				if twoPhase != 1 || partials != int64(len(after.Shards)) {
					t.Errorf("%s (%s): %d two-phase runs with %d partials, want 1 with %d", q.sql, label, twoPhase, partials, len(after.Shards))
				}
				if after.TwoPhaseFrameBytes != 0 {
					t.Errorf("%s (%s): TwoPhaseFrameBytes = %d, want 0", q.sql, label, after.TwoPhaseFrameBytes)
				}
			}
		}
		f.sys.SetVectorizedExecution(true)
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
		for qi, q := range twoPhaseQueries {
			if got := run(racing, "SHARDS", qi, "during rebalance"); got != want[qi] {
				t.Fatalf("%s: drifted during the rebalance (pass %d)\n--- got ---\n%s\n--- want ---\n%s", q.sql, pass, got, want[qi])
			}
		}
	}
	if err := racing.WaitForRebalance(""); err != nil {
		t.Fatal(err)
	}
}

func shardStats(t *testing.T, sys *idaax.System) idaax.ShardGroupStats {
	t.Helper()
	st, err := sys.ShardGroupStats("")
	if err != nil {
		t.Fatal(err)
	}
	return st
}
