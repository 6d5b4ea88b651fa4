package idaax_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"idaax"
)

// seedJoinCorpusTables creates a fact table (NULLs in both join-key columns) and a
// dimension table whose string columns stay low-cardinality, so join corpora
// exercise NULL keys, many-to-many string matches and dictionary-coded keys.
func seedJoinCorpusTables(t *testing.T, sys *idaax.System, accelerator, factDist, dimDist string, factRows, dimRows int) {
	t.Helper()
	s := sys.AdminSession()
	ddls := []string{
		fmt.Sprintf("CREATE TABLE jfact (id BIGINT NOT NULL, gid BIGINT, cat VARCHAR(8), v DOUBLE) IN ACCELERATOR %s%s", accelerator, factDist),
		fmt.Sprintf("CREATE TABLE jdim (gid BIGINT NOT NULL, code VARCHAR(8), label VARCHAR(16), w DOUBLE) IN ACCELERATOR %s%s", accelerator, dimDist),
	}
	for _, ddl := range ddls {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO jfact VALUES ")
	for i := 0; i < factRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		gid := fmt.Sprintf("%d", i%(dimRows+5)) // some gids miss the dim side
		cat := fmt.Sprintf("'c%d'", i%5)
		if i%11 == 3 {
			gid = "NULL"
		}
		if i%13 == 7 {
			cat = "NULL"
		}
		v := fmt.Sprintf("%g", float64((i*7)%200)/4-20)
		if i%17 == 9 {
			v = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, %s, %s)", i, gid, cat, v)
	}
	if _, err := s.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	sb.WriteString("INSERT INTO jdim VALUES ")
	for i := 0; i < dimRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		code := fmt.Sprintf("'c%d'", i%5)
		if i%9 == 4 {
			code = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %s, 'L%d', %g)", i, code, i%6, float64(i)*0.5)
	}
	if _, err := s.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// joinDifferentialQueries covers the join shapes the vectorized engine
// accepts (equi-joins, multi-key, LEFT, aggregation above the probe, empty
// sides, dictionary-coded string keys) and the shapes it must decline
// identically (non-equi ON, three tables) — every one must return the same
// rows with the engine on and off.
var joinDifferentialQueries = []struct {
	sql     string
	ordered bool
}{
	{"SELECT f.id, d.label FROM jfact f JOIN jdim d ON f.gid = d.gid", false},
	{"SELECT f.id, d.label, d.w FROM jfact f JOIN jdim d ON f.gid = d.gid WHERE f.v > 0 AND d.w <= 12", false},
	{"SELECT f.id, d.gid FROM jfact f JOIN jdim d ON f.cat = d.code WHERE d.gid < 10", false},
	{"SELECT f.id FROM jfact f JOIN jdim d ON f.gid = d.gid AND f.cat = d.code", false},
	{"SELECT f.id, d.label FROM jfact f LEFT JOIN jdim d ON f.gid = d.gid", false},
	{"SELECT f.id FROM jfact f LEFT JOIN jdim d ON f.gid = d.gid WHERE d.w IS NULL", false},
	{"SELECT f.id FROM jfact f LEFT JOIN jdim d ON f.gid = d.gid WHERE d.w > 3", false},
	{"SELECT f.id FROM jfact f, jdim d WHERE f.gid = d.gid AND d.gid IN (1, 3, 5)", false},
	{"SELECT COUNT(*) FROM jfact a, jfact b WHERE a.id = b.id", true},
	{"SELECT d.label, COUNT(*), SUM(f.v), MIN(f.v), MAX(f.cat) FROM jfact f JOIN jdim d ON f.gid = d.gid GROUP BY d.label", false},
	{"SELECT d.label, COUNT(*) FROM jfact f JOIN jdim d ON f.gid = d.gid GROUP BY d.label ORDER BY d.label", true},
	{"SELECT d.label, AVG(f.v) FROM jfact f LEFT JOIN jdim d ON f.gid = d.gid WHERE f.v IS NOT NULL GROUP BY d.label", false},
	{"SELECT COUNT(*), SUM(d.w) FROM jfact f JOIN jdim d ON f.gid = d.gid WHERE f.cat = 'c2'", true},
	// Group key shapes of the probe: probe-side int and dictionary columns,
	// build-side columns (LEFT: the padded rows group under NULL), two
	// columns, a residual, an int = float key (3 = 3.0 matches) and a
	// global aggregate over zero joined rows.
	{"SELECT f.gid, COUNT(*), SUM(d.w) FROM jfact f JOIN jdim d ON f.gid = d.gid GROUP BY f.gid", false},
	{"SELECT f.cat, COUNT(*), MAX(d.label) FROM jfact f LEFT JOIN jdim d ON f.gid = d.gid GROUP BY f.cat", false},
	{"SELECT d.code, COUNT(*), SUM(f.v), COUNT(d.w) FROM jfact f LEFT JOIN jdim d ON f.gid = d.gid GROUP BY d.code", false},
	{"SELECT f.cat, d.label, COUNT(*) FROM jfact f JOIN jdim d ON f.gid = d.gid GROUP BY f.cat, d.label", false},
	{"SELECT d.label, COUNT(*), SUM(f.v) FROM jfact f JOIN jdim d ON f.gid = d.gid WHERE f.v + d.w > 0 GROUP BY d.label", false},
	{"SELECT f.id, d.gid FROM jfact f JOIN jdim d ON f.v = d.gid", false},
	{"SELECT d.gid, COUNT(*) FROM jfact f JOIN jdim d ON f.v = d.gid GROUP BY d.gid", false},
	{"SELECT COUNT(*), SUM(f.v) FROM jfact f JOIN jdim d ON f.gid = d.gid WHERE f.id > 1000000", true},
	// Empty probe and empty build sides.
	{"SELECT f.id, d.label FROM jfact f JOIN jdim d ON f.gid = d.gid WHERE f.id > 1000000", false},
	{"SELECT f.id, d.label FROM jfact f JOIN jdim d ON f.gid = d.gid WHERE d.gid > 1000000", false},
	{"SELECT f.id FROM jfact f LEFT JOIN jdim d ON f.gid = d.gid WHERE d.gid > 1000000", false},
	// Shapes both engines must run row-at-a-time, with identical results.
	{"SELECT COUNT(*) FROM jfact f JOIN jdim d ON f.gid < d.gid WHERE d.gid < 5", true},
	{"SELECT COUNT(*) FROM jfact f JOIN jdim d ON f.gid = d.gid JOIN jdim e ON f.gid = e.gid", true},
}

func runJoinCorpus(t *testing.T, sys *idaax.System, queries []struct {
	sql     string
	ordered bool
}) map[bool][]string {
	t.Helper()
	sys.SetSlowQueryThreshold(time.Nanosecond)
	s := sys.AdminSession()
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
	return results
}

// TestJoinDifferentialSQL is the single-accelerator acceptance test: every
// corpus statement returns identical results with the vectorized hash join on
// and off, and the join engine actually executes while it is on.
func TestJoinDifferentialSQL(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	seedJoinCorpusTables(t, sys, "IDAA1", "", "", 800, 40)

	before, err := sys.AcceleratorStats("")
	if err != nil {
		t.Fatal(err)
	}
	results := runJoinCorpus(t, sys, joinDifferentialQueries)
	after, err := sys.AcceleratorStats("")
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range joinDifferentialQueries {
		if results[true][i] != results[false][i] {
			t.Errorf("%s: engines disagree\nvectorized:\n%s\nrow:\n%s",
				q.sql, results[true][i], results[false][i])
		}
	}
	if joins := after.VectorizedJoins - before.VectorizedJoins; joins == 0 {
		t.Fatal("no statement ran through the vectorized hash join")
	}
}

// TestJoinDifferentialSharded runs the corpus against a 3-shard fleet twice:
// once with both tables hash-distributed on the join key (co-located,
// shard-local vectorized joins) and once with the dimension distributed on an
// unrelated key (broadcast, the row join at the members). Both layouts must
// agree with the engine on and off.
func TestJoinDifferentialSharded(t *testing.T) {
	layouts := []struct {
		name              string
		factDist, dimDist string
		wantVexecJoins    bool
	}{
		{"colocated", " DISTRIBUTE BY HASH(gid)", " DISTRIBUTE BY HASH(gid)", true},
		{"broadcast", " DISTRIBUTE BY HASH(id)", " DISTRIBUTE BY HASH(label)", false},
	}
	for _, layout := range layouts {
		t.Run(layout.name, func(t *testing.T) {
			sys := newShardedSystem(t, 3)
			defer sys.Close()
			seedJoinCorpusTables(t, sys, "SHARDS", layout.factDist, layout.dimDist, 1200, 40)

			results := runJoinCorpus(t, sys, joinDifferentialQueries)
			for i, q := range joinDifferentialQueries {
				if results[true][i] != results[false][i] {
					t.Errorf("%s: sharded engines disagree\nvectorized:\n%s\nrow:\n%s",
						q.sql, results[true][i], results[false][i])
				}
			}
			if layout.wantVexecJoins {
				stats, err := sys.ShardGroupStats("")
				if err != nil {
					t.Fatal(err)
				}
				if stats.Group.VectorizedJoins == 0 {
					t.Fatal("co-located layout ran no shard-local vectorized join")
				}
			}
		})
	}
}

// TestJoinDuringRebalance races a co-located self-join against a live
// rebalance: while rows migrate, the join must keep matching every row with
// itself exactly once per snapshot.
func TestJoinDuringRebalance(t *testing.T) {
	const rows = 3000
	sys := newShardedSystem(t, 3)
	defer sys.Close()
	seedElasticTable(t, sys, "SHARDS", rows)
	sys.SetVectorizedExecution(true)
	s := sys.AdminSession()

	const joinSQL = "SELECT COUNT(*), SUM(m.id) FROM metrics m JOIN metrics o ON m.id = o.id"
	wantRes, err := s.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(wantRes)

	if err := sys.AddShardMember("", "IDAA4", 2); err != nil {
		t.Fatal(err)
	}
	checks := 0
	for {
		status, err := sys.RebalanceStatus("")
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(joinSQL)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultFingerprint(res); got != want {
			t.Fatalf("join drifted during rebalance (check %d):\n%s\nvs\n%s", checks, got, want)
		}
		checks++
		if !status.Active {
			break
		}
	}
	if err := sys.WaitForRebalance(""); err != nil {
		t.Fatal(err)
	}
	// Post-rebalance, the engines must still agree on a grouped join.
	groupSQL := "SELECT m.region, COUNT(*), SUM(o.amount) FROM metrics m JOIN metrics o ON m.id = o.id GROUP BY m.region ORDER BY m.region"
	vec, err := s.Query(groupSQL)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetVectorizedExecution(false)
	row, err := s.Query(groupSQL)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(vec) != resultFingerprint(row) {
		t.Fatalf("post-rebalance grouped join differs between engines:\n%s\nvs\n%s",
			resultFingerprint(vec), resultFingerprint(row))
	}
}

// TestDeclinedJoinCountsOneFallback holds that a statement whose join the
// batch engine declines counts one vexec fallback, although its row fallback
// plans the statement's FROM and WHERE a second time: on one accelerator,
// and on the one member a pruned co-located join reaches in a shard group.
func TestDeclinedJoinCountsOneFallback(t *testing.T) {
	cases := []struct {
		name, accelerator, dist, sql string
		shards                       int
	}{
		{"single", "IDAA1", "", "SELECT COUNT(*) FROM jfact f JOIN jdim d ON f.gid < d.gid WHERE d.gid < 5", 1},
		{"group", "SHARDS", " DISTRIBUTE BY HASH(gid)", "SELECT COUNT(*) FROM jfact f JOIN jdim d ON f.gid = d.gid AND f.v < d.w WHERE f.gid = 3", 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sys *idaax.System
			if c.shards > 1 {
				sys = newShardedSystem(t, c.shards)
			} else {
				sys = newTestSystem(t)
			}
			defer sys.Close()
			seedJoinCorpusTables(t, sys, c.accelerator, c.dist, c.dist, 200, 20)
			fallbacks := func() int64 {
				st, err := sys.AcceleratorStats(c.accelerator)
				if err != nil {
					t.Fatal(err)
				}
				return st.VexecFallbacks
			}
			before := fallbacks()
			if _, err := sys.AdminSession().Query(c.sql); err != nil {
				t.Fatal(err)
			}
			if got := fallbacks() - before; got != 1 {
				t.Fatalf("%s counted %d vexec fallbacks, want 1", c.sql, got)
			}
		})
	}
}
