package vexec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"idaax/internal/colstore"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// buildTable creates the differential table: every column kind, NULLs in
// every nullable column, enough rows to span batches, and deleted rows. K
// holds negative ints, F the float group keys that need normalizing (-0.0
// next to 0.0, NaN) and TS a handful of timestamps.
func buildTable(t *testing.T, n int) (*colstore.Table, colstore.Visibility) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "GRP", Kind: types.KindInt},
		types.Column{Name: "CAT", Kind: types.KindString},
		types.Column{Name: "V", Kind: types.KindFloat},
		types.Column{Name: "FLAG", Kind: types.KindBool},
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "F", Kind: types.KindFloat},
		types.Column{Name: "TS", Kind: types.KindTimestamp},
	)
	tab := colstore.NewTable("T", schema, "")
	rng := rand.New(rand.NewSource(42))
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), 1.5, 1.25, -2.25}
	rows := make([]types.Row, n)
	for i := range rows {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(37))),
			types.NewString(fmt.Sprintf("c%d", rng.Intn(9))),
			types.NewFloat(float64(rng.Intn(2000))/8 - 50),
			types.NewBool(rng.Intn(2) == 0),
			types.NewInt(int64(rng.Intn(13) - 6)),
			types.NewFloat(floats[rng.Intn(len(floats))]),
			types.NewTimestampMicros(int64(rng.Intn(4)) * 86_400_000_000),
		}
		switch i % 19 {
		case 3:
			row[1] = types.Null()
		case 7:
			row[2] = types.Null()
		case 11:
			row[3] = types.Null()
		case 13:
			row[4] = types.Null()
		case 15:
			row[5] = types.Null()
		case 17:
			row[6] = types.Null()
		case 18:
			row[7] = types.Null()
		}
		rows[i] = row
	}
	if _, err := tab.Insert(1, rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 23 {
		tab.MarkDeleted(i, 2)
	}
	vis := func(created, deleted int64) bool { return created == 1 && deleted == 0 }
	return tab, vis
}

// rowPath executes sel the row-at-a-time way: materialize every visible row,
// then run the shared relational operators.
func rowPath(t *testing.T, tab *colstore.Table, vis colstore.Visibility, sel *sqlparse.SelectStmt) (*relalg.Relation, error) {
	t.Helper()
	rows, _ := tab.ParallelScan(1, vis, nil)
	from := relalg.FromTable(sel.From[0].Name(), tab.Schema(), rows)
	return relalg.ExecuteSelect(from, sel, relalg.Options{Parallelism: 1})
}

// vecPath executes sel through the vectorized engine, then the row operators
// above WHERE unless the plan aggregated.
func vecPath(t *testing.T, tab *colstore.Table, vis colstore.Visibility, sel *sqlparse.SelectStmt, slices int) (*relalg.Relation, error) {
	t.Helper()
	plan, ok := PlanQuery(sel, tab.Schema())
	if !ok {
		t.Fatalf("statement unexpectedly out of engine scope")
	}
	rel, _, err := plan.Run(tab, slices, vis)
	if err != nil {
		return nil, err
	}
	if plan.Aggregated() {
		return rel, nil
	}
	return relalg.ExecuteFiltered(rel, sel, relalg.Options{Parallelism: 1})
}

// fingerprint renders a relation as sorted row strings (column names
// included), so result comparison is order-insensitive where SQL gives no
// order guarantee.
func fingerprint(rel *relalg.Relation) string {
	var names []string
	for _, c := range rel.Cols {
		names = append(names, c.Name+":"+c.Kind.String())
	}
	lines := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Kind.String() + "=" + v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return strings.Join(names, ",") + "\n" + strings.Join(lines, "\n")
}

// differentialQueries is the unit-level statement corpus: filters of every
// vectorizable shape, residual fallbacks, grouping with every aggregate, NULL
// semantics, and empty results.
var differentialQueries = []string{
	// Plain scans and filters.
	"SELECT * FROM t",
	"SELECT id, v FROM t WHERE id > 900",
	"SELECT id FROM t WHERE v <= 12.5",
	"SELECT id FROM t WHERE v <> 0 AND id >= 10 AND id < 1000",
	"SELECT id FROM t WHERE 100 > id",
	"SELECT id FROM t WHERE cat = 'c3'",
	"SELECT id FROM t WHERE cat >= 'c7'",
	"SELECT id FROM t WHERE cat <> 'c1' AND v > 50",
	"SELECT id FROM t WHERE flag = TRUE",
	"SELECT id FROM t WHERE id BETWEEN 40 AND 90",
	"SELECT id FROM t WHERE v IS NULL",
	"SELECT id, cat FROM t WHERE cat IS NOT NULL AND v > 100",
	"SELECT id FROM t WHERE v IS NULL AND grp IS NOT NULL",
	// Residual conjuncts (IN, LIKE, OR, arithmetic) on top of vector filters.
	"SELECT id FROM t WHERE grp IN (1, 2, 3) AND id < 500",
	"SELECT id FROM t WHERE cat LIKE 'c%' AND v > 0",
	"SELECT id FROM t WHERE (grp = 1 OR grp = 2) AND v > 0",
	"SELECT id FROM t WHERE v * 2 > 300 AND id > 5",
	"SELECT id FROM t WHERE id = 99999",
	// Projection, DISTINCT, ORDER BY, LIMIT run above the vectorized filter.
	"SELECT DISTINCT cat FROM t WHERE v > 0",
	"SELECT id, v * 2 AS dbl FROM t WHERE id < 50 ORDER BY dbl DESC LIMIT 7",
	"SELECT id FROM t WHERE id < 300 ORDER BY id LIMIT 10 OFFSET 5",
	// Vectorized aggregation.
	"SELECT COUNT(*) FROM t",
	"SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
	"SELECT COUNT(*) FROM t WHERE id > 100000",
	"SELECT SUM(v), MIN(id), MAX(cat) FROM t WHERE v IS NOT NULL AND id > 200",
	"SELECT grp, COUNT(*) FROM t GROUP BY grp",
	"SELECT grp, cat, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY grp, cat",
	"SELECT cat, MIN(v), MAX(v), MIN(cat), MAX(flag) FROM t GROUP BY cat",
	"SELECT grp, STDDEV(v), VARIANCE(v) FROM t WHERE id < 800 GROUP BY grp",
	"SELECT grp, COUNT(*) FROM t WHERE id > 100000 GROUP BY grp",
	"SELECT grp, COUNT(*), 42 FROM t GROUP BY grp",
	"SELECT flag, COUNT(*), SUM(id) FROM t GROUP BY flag",
	"SELECT grp, SUM(id) FROM t GROUP BY grp LIMIT 5",
	// One group column of every native kind: negative ints and NULL keys,
	// -0.0/0.0 and NaN float keys, bools, timestamps, a dictionary column
	// (raw strings in the threshold-0 run), and two columns together.
	"SELECT k, COUNT(*), SUM(v), MIN(id) FROM t GROUP BY k",
	"SELECT k, COUNT(*) FROM t WHERE k < 0 GROUP BY k",
	"SELECT f, COUNT(*), MIN(id), MAX(id) FROM t GROUP BY f",
	"SELECT ts, COUNT(*), MAX(ts), SUM(k) FROM t GROUP BY ts",
	"SELECT flag, COUNT(*), MIN(k) FROM t WHERE id < 700 GROUP BY flag",
	"SELECT cat, COUNT(*), SUM(k) FROM t WHERE id < 1200 GROUP BY cat",
	"SELECT k, f, COUNT(*) FROM t GROUP BY k, f",
	"SELECT COUNT(*), SUM(k), MAX(ts) FROM t WHERE id < 0",
	"SELECT k, COUNT(*) FROM t WHERE id < 0 GROUP BY k",
	// Aggregation shapes that fall back to row operators above the
	// vectorized filter (HAVING, ORDER BY, DISTINCT aggs, expressions).
	"SELECT grp, COUNT(*) AS n FROM t GROUP BY grp HAVING COUNT(*) > 20 ORDER BY grp",
	"SELECT grp, COUNT(DISTINCT cat) FROM t GROUP BY grp ORDER BY grp",
	"SELECT grp, SUM(v) / COUNT(*) FROM t WHERE v > 0 GROUP BY grp ORDER BY grp",
	"SELECT grp + 1 AS g2, COUNT(*) FROM t GROUP BY grp + 1 ORDER BY g2",
}

// TestDifferentialVectorizedVsRow is the unit-level half of the differential
// suite: for every statement in the corpus the vectorized engine and the row
// engine must return identical result sets (rows, aggregates, NULLs, column
// names and kinds), at several batch-parallelism degrees, with the string
// column dictionary-encoded and raw.
func TestDifferentialVectorizedVsRow(t *testing.T) {
	for _, threshold := range []int{colstore.DefaultDictThreshold, 0} {
		prev := colstore.SetDictThreshold(threshold)
		tab, vis := buildTable(t, 2500)
		colstore.SetDictThreshold(prev)
		if dict := tab.ColumnEncodings()[2].Dict; dict != (threshold > 0) {
			t.Fatalf("threshold %d: CAT dictionary-encoded = %v", threshold, dict)
		}
		runDifferential(t, tab, vis, differentialQueries)
	}
}

// runDifferential compares the row and vectorized engines on every query.
func runDifferential(t *testing.T, tab *colstore.Table, vis colstore.Visibility, queries []string) {
	t.Helper()
	for _, q := range queries {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sel := stmt.(*sqlparse.SelectStmt)
		want, wantErr := rowPath(t, tab, vis, sel)
		for _, slices := range []int{1, 4} {
			got, gotErr := vecPath(t, tab, vis, sel, slices)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("%s (slices=%d): row err=%v, vec err=%v", q, slices, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if fp, gfp := fingerprint(want), fingerprint(got); fp != gfp {
				t.Fatalf("%s (slices=%d): result mismatch\nrow engine:\n%s\nvectorized:\n%s", q, slices, fp, gfp)
			}
		}
	}
}

// TestDictionarySpillBetweenStatements groups by a dictionary column, spills
// its dictionary with more inserts, and groups again on the same table: each
// run indexes groups by the codes of the dictionary it scans, or by the raw
// strings once there is none.
func TestDictionarySpillBetweenStatements(t *testing.T) {
	prev := colstore.SetDictThreshold(12)
	defer colstore.SetDictThreshold(prev)
	tab, vis := buildTable(t, 2500)
	queries := []string{
		"SELECT cat, COUNT(*), SUM(v) FROM t GROUP BY cat",
		"SELECT cat, COUNT(*) FROM t WHERE id > 2000 GROUP BY cat",
	}
	runDifferential(t, tab, vis, queries)

	more := make([]types.Row, 40)
	for i := range more {
		more[i] = types.Row{types.NewInt(int64(3000 + i)), types.NewInt(1), types.NewString(fmt.Sprintf("d%d", i%10)),
			types.NewFloat(float64(i)), types.NewBool(true), types.NewInt(-1), types.NewFloat(0), types.NewTimestampMicros(0)}
	}
	if _, err := tab.Insert(1, more); err != nil {
		t.Fatal(err)
	}
	if enc := tab.ColumnEncodings()[2]; enc.Dict || !enc.Spilled {
		t.Fatalf("CAT did not spill: %+v", enc)
	}
	runDifferential(t, tab, vis, queries)
}

// TestDifferentialEmptyRelation pins the zero-row edge cases: empty table,
// global aggregates over nothing, grouped aggregates over nothing.
func TestDifferentialEmptyRelation(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "GRP", Kind: types.KindInt},
		types.Column{Name: "CAT", Kind: types.KindString},
		types.Column{Name: "V", Kind: types.KindFloat},
		types.Column{Name: "FLAG", Kind: types.KindBool},
	)
	tab := colstore.NewTable("T", schema, "")
	vis := func(created, deleted int64) bool { return deleted == 0 }
	for _, q := range []string{
		"SELECT * FROM t",
		"SELECT id FROM t WHERE v > 10",
		"SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
		"SELECT grp, COUNT(*) FROM t GROUP BY grp",
	} {
		sel := mustParse(t, q)
		want, err := rowPath(t, tab, vis, sel)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := vecPath(t, tab, vis, sel, 2)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fingerprint(want) != fingerprint(got) {
			t.Fatalf("%s: empty-relation mismatch\nrow:\n%s\nvec:\n%s", q, fingerprint(want), fingerprint(got))
		}
	}
}

// TestFilterPathPreservesOrder pins that the non-aggregated vectorized path
// returns rows in position order, exactly like the row scan — ORDER BY-less
// results are byte-identical, not just set-equal.
func TestFilterPathPreservesOrder(t *testing.T) {
	tab, vis := buildTable(t, 2500)
	for _, q := range []string{
		"SELECT * FROM t",
		"SELECT id, v FROM t WHERE v > 20 AND cat <> 'c4'",
		"SELECT id FROM t WHERE grp IN (2, 4) AND id < 2000",
	} {
		sel := mustParse(t, q)
		want, err := rowPath(t, tab, vis, sel)
		if err != nil {
			t.Fatal(err)
		}
		for _, slices := range []int{1, 3, 8} {
			got, err := vecPath(t, tab, vis, sel, slices)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) != len(got.Rows) {
				t.Fatalf("%s: %d vs %d rows", q, len(want.Rows), len(got.Rows))
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					if want.Rows[i][j].String() != got.Rows[i][j].String() {
						t.Fatalf("%s (slices=%d): order mismatch at row %d", q, slices, i)
					}
				}
			}
		}
	}
}

// TestPlanModes pins the eligibility classification EXPLAIN reports.
func TestPlanModes(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "CAT", Kind: types.KindString},
		types.Column{Name: "V", Kind: types.KindFloat},
	)
	cases := map[string]string{
		"SELECT * FROM t":                                     ModeScan,
		"SELECT * FROM t WHERE cat LIKE 'x%'":                 ModeScan,
		"SELECT id FROM t WHERE id > 5":                       ModeScanFilter,
		"SELECT id FROM t WHERE id > 5 AND cat LIKE 'x%'":     ModeScanFilter,
		"SELECT id FROM t WHERE cat IS NOT NULL":              ModeScanFilter,
		"SELECT COUNT(*) FROM t":                              ModeScanFilterAggregate,
		"SELECT cat, SUM(v) FROM t WHERE id > 5 GROUP BY cat": ModeScanFilterAggregate,
		// Aggregation declines (ORDER BY / DISTINCT agg / HAVING): the scan
		// and any vector filter still run batched, row aggregation above.
		"SELECT cat, SUM(v) FROM t GROUP BY cat ORDER BY cat":                 ModeScan,
		"SELECT cat, SUM(v) FROM t WHERE id > 5 GROUP BY cat ORDER BY cat":    ModeScanFilter,
		"SELECT cat, COUNT(DISTINCT id) FROM t WHERE id > 5 GROUP BY cat":     ModeScanFilter,
		"SELECT cat, SUM(v) FROM t WHERE id > 5 GROUP BY cat HAVING SUM(v)>0": ModeScanFilter,
	}
	for q, wantMode := range cases {
		sel := mustParse(t, q)
		plan, ok := PlanQuery(sel, schema)
		if !ok {
			t.Fatalf("%s: rejected", q)
		}
		if plan.Mode() != wantMode {
			t.Fatalf("%s: mode %s, want %s", q, plan.Mode(), wantMode)
		}
	}
	// Multi-table statements are out of scope entirely.
	if _, ok := PlanQuery(mustParse(t, "SELECT * FROM t, u WHERE t.id = u.id"), schema); ok {
		t.Fatal("join statement accepted by single-table engine")
	}
}

// TestIncomparableKindPredicates pins the engine's handling of comparisons
// types.Compare rejects (boolean column vs numeric literal, numeric column vs
// string literal, string column vs numeric BETWEEN bounds): the pushed
// predicate drops every row — matching the row engine, whose scan pushdown
// filters the same rows out before its WHERE re-evaluation could error.
func TestIncomparableKindPredicates(t *testing.T) {
	tab, vis := buildTable(t, 500)
	for _, q := range []string{
		"SELECT id FROM t WHERE flag = 1",
		"SELECT id FROM t WHERE v = TRUE",
		"SELECT id FROM t WHERE cat BETWEEN 1 AND 5",
		"SELECT id FROM t WHERE id < '200'",
		"SELECT COUNT(*) FROM t WHERE flag > 0",
	} {
		sel := mustParse(t, q)
		plan, ok := PlanQuery(sel, tab.Schema())
		if !ok {
			t.Fatalf("%s: rejected", q)
		}
		if plan.Mode() == ModeScan {
			t.Fatalf("%s: conjunct not pushed (mode %s)", q, plan.Mode())
		}
		got, err := vecPath(t, tab, vis, sel, 2)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		wantRows := 0
		if strings.HasPrefix(q, "SELECT COUNT(*)") {
			wantRows = 1 // empty global aggregate still yields one row
			if got.Rows[0][0].Int != 0 {
				t.Fatalf("%s: COUNT=%s, want 0", q, got.Rows[0][0])
			}
		}
		if len(got.Rows) != wantRows {
			t.Fatalf("%s: %d rows, want %d", q, len(got.Rows), wantRows)
		}
	}
}

func mustParse(t testing.TB, q string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return stmt.(*sqlparse.SelectStmt)
}
