package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"idaax/internal/accel"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

func testSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "DEPT", Kind: types.KindString},
		types.Column{Name: "V", Kind: types.KindFloat},
	)
}

// testRows generates deterministic rows whose float values are exactly
// representable so that differently-ordered summation cannot introduce
// floating-point drift between the sharded and the single-node execution.
func testRows(n int) []types.Row {
	depts := []string{"SALES", "ENG", "OPS", "HR"}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		v := types.NewFloat(float64(i%17) * 0.5)
		if i%23 == 0 {
			v = types.Null()
		}
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString(depts[i%len(depts)]),
			v,
		}
	}
	return rows
}

// replInserts turns rows and their DB2 source ids into one replicated insert
// run.
func replInserts(rows []types.Row, srcIDs []int64) []accel.ReplChange {
	out := make([]accel.ReplChange, len(rows))
	for i, row := range rows {
		out[i] = accel.ReplChange{Op: accel.ReplInsert, SrcID: srcIDs[i], Row: row}
	}
	return out
}

// newFleet builds a router over n accelerators with table T loaded, plus a
// single reference accelerator holding the identical rows.
func newFleet(t *testing.T, shards int, distKey string, rows []types.Row) (*Router, *accel.Accelerator) {
	t.Helper()
	members := make([]*accel.Accelerator, shards)
	for i := range members {
		members[i] = accel.New(fmt.Sprintf("SHARD%d", i), 2)
	}
	router, err := NewRouter("FLEET", members)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CreateTable("T", testSchema(), distKey); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Insert(1, "T", rows); err != nil {
		t.Fatal(err)
	}
	router.CommitTxn(1)

	ref := accel.New("REF", 2)
	if err := ref.CreateTable("T", testSchema(), distKey); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Insert(1, "T", rows); err != nil {
		t.Fatal(err)
	}
	ref.CommitTxn(1)
	return router, ref
}

func parseSelect(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	sel, ok := mustParseStmt(t, sql).(*sqlparse.SelectStmt)
	if !ok {
		t.Fatalf("%q is not a SELECT", sql)
	}
	return sel
}

func mustParseStmt(t *testing.T, sql string) sqlparse.Statement {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return st
}

func formatRows(rel *relalg.Relation) []string {
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%d:%s", v.Kind, v.GroupKey())
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func colNames(rel *relalg.Relation) []string {
	out := make([]string, len(rel.Cols))
	for i, c := range rel.Cols {
		out[i] = c.Name
	}
	return out
}

// assertSameResult compares the sharded and reference results. Ordered
// compares row-by-row (the query must have a deterministic ORDER BY);
// unordered compares as multisets.
func assertSameResult(t *testing.T, sql string, got, want *relalg.Relation, ordered bool) {
	t.Helper()
	gc, wc := colNames(got), colNames(want)
	if strings.Join(gc, ",") != strings.Join(wc, ",") {
		t.Fatalf("%s: columns %v != %v", sql, gc, wc)
	}
	gr, wr := formatRows(got), formatRows(want)
	if !ordered {
		sort.Strings(gr)
		sort.Strings(wr)
	}
	if len(gr) != len(wr) {
		t.Fatalf("%s: %d rows != %d rows", sql, len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("%s: row %d differs:\n  sharded: %s\n  single:  %s", sql, i, gr[i], wr[i])
		}
	}
}

// TestDifferentialHash is the acceptance-criterion test: a DISTRIBUTE BY
// HASH(id) table over 3 shards answers every query shape identically to a
// single accelerator holding all rows.
func TestDifferentialHash(t *testing.T) {
	runDifferential(t, 3, "ID")
}

// TestDifferentialRoundRobin covers the round-robin distribution.
func TestDifferentialRoundRobin(t *testing.T) {
	runDifferential(t, 4, "")
}

func runDifferential(t *testing.T, shards int, distKey string) {
	rows := testRows(500)
	router, ref := newFleet(t, shards, distKey, rows)

	cases := []struct {
		sql     string
		ordered bool
	}{
		{"SELECT * FROM t ORDER BY id", true},
		{"SELECT id, v FROM t WHERE v > 3 ORDER BY id", true},
		{"SELECT id, v FROM t WHERE v > 3", false},
		{"SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) FROM t", true},
		{"SELECT COUNT(*) FROM t WHERE v IS NULL", true},
		{"SELECT dept, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY dept ORDER BY dept", true},
		{"SELECT dept, COUNT(*) AS c FROM t GROUP BY dept HAVING COUNT(*) > 100 ORDER BY c DESC, dept", true},
		{"SELECT dept, COUNT(*) * 2 + 1, SUM(v) / COUNT(v) FROM t GROUP BY dept ORDER BY dept", true},
		{"SELECT DISTINCT dept FROM t ORDER BY dept", true},
		{"SELECT id FROM t ORDER BY id LIMIT 10 OFFSET 5", true},
		{"SELECT id, v FROM t ORDER BY v DESC, id LIMIT 7", true},
		{"SELECT STDDEV(v), VARIANCE(v) FROM t", true},
		{"SELECT dept, STDDEV(v) FROM t GROUP BY dept ORDER BY dept", true},
		{"SELECT COUNT(DISTINCT dept) FROM t", true},
		{"SELECT * FROM t WHERE id = 7", true},
		{"SELECT COUNT(*), SUM(v) FROM t WHERE id = 7", true},
		{"SELECT dept, AVG(v) FROM t WHERE id < 100 GROUP BY dept ORDER BY 2 DESC, dept", true},
		{"SELECT a.dept, COUNT(*) FROM t a INNER JOIN t b ON a.id = b.id GROUP BY a.dept ORDER BY a.dept", true},
		{"SELECT s.dept, s.total FROM (SELECT dept, SUM(v) AS total FROM t GROUP BY dept) s ORDER BY s.dept", true},
		{"SELECT CASE WHEN v > 4 THEN 'HI' ELSE 'LO' END AS bucket, COUNT(*) FROM t WHERE v IS NOT NULL GROUP BY CASE WHEN v > 4 THEN 'HI' ELSE 'LO' END ORDER BY bucket", true},
	}
	for _, tc := range cases {
		sel := parseSelect(t, tc.sql)
		got, err := router.Query(0, sel)
		if err != nil {
			t.Fatalf("sharded %q: %v", tc.sql, err)
		}
		// Re-parse so the reference run gets fresh AST nodes (the planner must
		// not have mutated the statement).
		want, err := ref.Query(0, parseSelect(t, tc.sql))
		if err != nil {
			t.Fatalf("reference %q: %v", tc.sql, err)
		}
		assertSameResult(t, tc.sql, got, want, tc.ordered)
	}
}

func TestHashPartitionerPlacement(t *testing.T) {
	p := NewHashPartitioner(0, types.KindInt, []string{"S0", "S1", "S2", "S3"})
	row := types.Row{types.NewInt(42)}
	a := p.Place(row)
	b := p.Place(row.Clone())
	if a != b {
		t.Fatalf("same key placed on different shards: %d, %d", a, b)
	}
	// A literal of a different numeric kind must hash like the stored value.
	byKey, ok := p.PlaceKey(types.NewFloat(42))
	if !ok || byKey != a {
		t.Fatalf("coerced key placed on shard %d (ok=%t), rows on %d", byKey, ok, a)
	}
	if _, ok := NewRoundRobinPartitioner(4).PlaceKey(types.NewInt(1)); ok {
		t.Fatal("round robin must not offer key placement")
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	p := NewRoundRobinPartitioner(3)
	counts := make([]int, 3)
	for i := 0; i < 99; i++ {
		counts[p.Place(nil)]++
	}
	for s, c := range counts {
		if c != 33 {
			t.Fatalf("shard %d received %d rows, want 33", s, c)
		}
	}
}

func TestInsertPartitionsByKey(t *testing.T) {
	rows := testRows(200)
	router, _ := newFleet(t, 3, "ID", rows)
	total := 0
	for _, m := range router.Members() {
		n, err := m.RowCount(0, "T")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("shard %s holds no rows; distribution is degenerate", m.Name())
		}
		total += n
	}
	if total != len(rows) {
		t.Fatalf("fleet holds %d rows, want %d", total, len(rows))
	}
	// Every row with the same key lives on exactly one shard: query a key and
	// count shards holding it.
	sel := parseSelect(t, "SELECT id FROM t WHERE id = 11")
	holders := 0
	for _, m := range router.Members() {
		rel, err := m.Query(0, sel)
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Rows) > 0 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("key 11 present on %d shards, want exactly 1", holders)
	}
}

func TestShardPruning(t *testing.T) {
	rows := testRows(100)
	router, _ := newFleet(t, 3, "ID", rows)
	before := make([]int64, 3)
	for i, st := range router.GroupStats().Shards {
		before[i] = st.QueriesRun
	}
	rel, err := router.Query(0, parseSelect(t, "SELECT id, dept FROM t WHERE id = 42"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || rel.Rows[0][0].Int != 42 {
		t.Fatalf("pruned query returned %d rows", len(rel.Rows))
	}
	ran := 0
	for i, st := range router.GroupStats().Shards {
		if st.QueriesRun > before[i] {
			ran++
		}
	}
	if ran != 1 {
		t.Fatalf("pruned query ran on %d shards, want 1", ran)
	}
	if s := router.ShardingStats(); s.QueriesPruned != 1 {
		t.Fatalf("QueriesPruned = %d, want 1", s.QueriesPruned)
	}
	// Round-robin tables cannot prune.
	rrRouter, _ := newFleet(t, 3, "", rows)
	if _, err := rrRouter.Query(0, parseSelect(t, "SELECT id FROM t WHERE id = 42")); err != nil {
		t.Fatal(err)
	}
	if s := rrRouter.ShardingStats(); s.QueriesPruned != 0 {
		t.Fatalf("round-robin pruned %d queries, want 0", s.QueriesPruned)
	}
}

func TestTwoPhaseStats(t *testing.T) {
	rows := testRows(100)
	router, _ := newFleet(t, 3, "ID", rows)
	if _, err := router.Query(0, parseSelect(t, "SELECT dept, COUNT(*) FROM t GROUP BY dept")); err != nil {
		t.Fatal(err)
	}
	s := router.ShardingStats()
	if s.TwoPhaseAggregates != 1 {
		t.Fatalf("TwoPhaseAggregates = %d, want 1", s.TwoPhaseAggregates)
	}
	// Only one partial row per (shard, dept) travels, not base rows.
	if s.RowsGathered >= int64(len(rows)) {
		t.Fatalf("two-phase aggregation gathered %d rows; expected group partials only", s.RowsGathered)
	}
}

func TestRouterDML(t *testing.T) {
	rows := testRows(60)
	router, ref := newFleet(t, 3, "ID", rows)

	for _, stmt := range []string{
		"UPDATE t SET v = v + 10 WHERE id < 30",
		"DELETE FROM t WHERE id >= 50",
	} {
		st, err := sqlparse.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		switch s := st.(type) {
		case *sqlparse.UpdateStmt:
			gn, err := router.Update(2, "T", s.Assignments, s.Where)
			if err != nil {
				t.Fatal(err)
			}
			wn, err := ref.Update(2, "T", s.Assignments, s.Where)
			if err != nil {
				t.Fatal(err)
			}
			if gn != wn {
				t.Fatalf("UPDATE affected %d sharded vs %d single", gn, wn)
			}
		case *sqlparse.DeleteStmt:
			gn, err := router.Delete(2, "T", s.Where)
			if err != nil {
				t.Fatal(err)
			}
			wn, err := ref.Delete(2, "T", s.Where)
			if err != nil {
				t.Fatal(err)
			}
			if gn != wn {
				t.Fatalf("DELETE affected %d sharded vs %d single", gn, wn)
			}
		}
	}
	router.CommitTxn(2)
	ref.CommitTxn(2)

	sql := "SELECT id, dept, v FROM t ORDER BY id"
	got, err := router.Query(0, parseSelect(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(0, parseSelect(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, sql, got, want, true)

	// Assigning to the hash distribution key is rejected: the row would have
	// to migrate between shards and key-based pruning would miss it.
	keyUpd := mustParseStmt(t, "UPDATE t SET id = 999 WHERE id = 1").(*sqlparse.UpdateStmt)
	if _, err := router.Update(3, "T", keyUpd.Assignments, keyUpd.Where); err == nil {
		t.Fatal("UPDATE of the distribution key must fail on a hash-sharded table")
	}
	// Round-robin tables have no distribution key and accept the same UPDATE.
	rrRouter, _ := newFleet(t, 2, "", testRows(10))
	if _, err := rrRouter.Update(3, "T", keyUpd.Assignments, keyUpd.Where); err != nil {
		t.Fatalf("round-robin UPDATE of ID: %v", err)
	}

	n, err := router.Truncate(3, "T")
	if err != nil {
		t.Fatal(err)
	}
	router.CommitTxn(3)
	if cnt, _ := router.RowCount(0, "T"); cnt != 0 {
		t.Fatalf("after truncate of %d rows, %d remain", n, cnt)
	}
}

func TestReplicatedFanOut(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", nil)
	rows := testRows(90)
	srcIDs := make([]int64, len(rows))
	for i := range srcIDs {
		srcIDs[i] = int64(i + 1000)
	}
	if _, err := router.ApplyReplicated("T", replInserts(rows, srcIDs)); err != nil {
		t.Fatal(err)
	}
	// Each source id must live on exactly one shard.
	for _, src := range srcIDs {
		holders := 0
		for _, m := range router.Members() {
			if m.HasReplicatedSource("T", src) {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("source row %d mirrored on %d shards, want exactly 1", src, holders)
		}
	}
	// An update that changes the distribution key migrates the row.
	moved := types.Row{types.NewInt(987654321), types.NewString("ENG"), types.NewFloat(1)}
	if _, err := router.ApplyReplicated("T", []accel.ReplChange{{Op: accel.ReplUpdate, SrcID: 1000, Row: moved}}); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for _, m := range router.Members() {
		if m.HasReplicatedSource("T", 1000) {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("after key-changing update, source row on %d shards", holders)
	}
	if n, _ := router.RowCount(0, "T"); n != len(rows) {
		t.Fatalf("row count %d after update, want %d", n, len(rows))
	}
	// Delete removes it wherever it lives.
	n, err := router.ApplyReplicated("T", []accel.ReplChange{{Op: accel.ReplDelete, SrcID: 1000}})
	if ok := n == 1; err != nil || !ok {
		t.Fatalf("replicated delete: ok=%t err=%v", ok, err)
	}
	if n, _ := router.RowCount(0, "T"); n != len(rows)-1 {
		t.Fatalf("row count %d after delete, want %d", n, len(rows)-1)
	}
}

// TestReplicatedBatchAbortsOnEveryShard checks that a replication batch that
// fails on one shard commits on none, and that a retry of its valid rows then
// lands every one of them.
func TestReplicatedBatchAbortsOnEveryShard(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", nil)
	rows := testRows(90)
	srcIDs := make([]int64, len(rows))
	for i := range srcIDs {
		srcIDs[i] = int64(i + 1)
	}
	good := replInserts(rows, srcIDs)
	bad := append(append([]accel.ReplChange(nil), good...), accel.ReplChange{Op: accel.ReplInsert, SrcID: 999, Row: types.Row{types.NewInt(7)}})
	if _, err := router.ApplyReplicated("T", bad); err == nil {
		t.Fatal("a batch with a 1-column row applied")
	}
	if n, _ := router.RowCount(0, "T"); n != 0 {
		t.Fatalf("%d rows visible after the aborted batch, want 0", n)
	}
	if n, err := router.ApplyReplicated("T", good); err != nil || n != len(rows) {
		t.Fatalf("retry applied %d rows (%v), want %d", n, err, len(rows))
	}
	if n, _ := router.RowCount(0, "T"); n != len(rows) {
		t.Fatalf("%d rows visible after the retry, want %d", n, len(rows))
	}
}

// TestCommitVisibilityAtomicAcrossShards hammers the commit fence: a reader
// racing CommitTxn must see each transaction's rows on every shard or on
// none, never a partially committed batch.
func TestCommitVisibilityAtomicAcrossShards(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", nil)
	const batch = 30
	const rounds = 50

	stop := make(chan struct{})
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sel := parseSelect(t, "SELECT COUNT(*) FROM t")
		for {
			select {
			case <-stop:
				return
			default:
			}
			rel, err := router.Query(0, sel)
			if err != nil {
				readerErr = err
				return
			}
			if n := rel.Rows[0][0].Int; n%batch != 0 {
				readerErr = fmt.Errorf("observed %d rows: a commit was partially visible across shards", n)
				return
			}
		}
	}()

	for round := 0; round < rounds; round++ {
		txn := int64(100 + round)
		rows := make([]types.Row, batch)
		for i := range rows {
			id := int64(round*batch + i)
			rows[i] = types.Row{types.NewInt(id), types.NewString("X"), types.NewFloat(1)}
		}
		if _, err := router.Insert(txn, "T", rows); err != nil {
			t.Fatal(err)
		}
		router.CommitTxn(txn)
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if n, _ := router.RowCount(0, "T"); n != batch*rounds {
		t.Fatalf("final count %d, want %d", n, batch*rounds)
	}
}

func TestCreateTableValidation(t *testing.T) {
	members := []*accel.Accelerator{accel.New("A", 1), accel.New("B", 1)}
	router, err := NewRouter("G", members)
	if err != nil {
		t.Fatal(err)
	}
	if err := router.CreateTable("T", testSchema(), "NOPE"); err == nil {
		t.Fatal("unknown distribution key must fail")
	}
	// A failed create must not leave partial tables behind.
	for _, m := range members {
		if m.HasTable("T") {
			t.Fatalf("member %s kept a partially created table", m.Name())
		}
	}
	if err := router.CreateTable("T", testSchema(), "ID"); err != nil {
		t.Fatal(err)
	}
	if err := router.CreateTable("T", testSchema(), "ID"); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if !router.HasTable("t") || len(router.TableNames()) != 1 {
		t.Fatal("router lost track of its table")
	}
	if err := router.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if m.HasTable("T") {
			t.Fatalf("member %s still has the dropped table", m.Name())
		}
	}
}
