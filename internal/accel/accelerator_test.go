package accel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

func testSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindFloat},
		types.Column{Name: "TAG", Kind: types.KindString},
	)
}

func newAccel(t *testing.T) *Accelerator {
	t.Helper()
	a := New("TEST1", 4)
	if err := a.CreateTable("T", testSchema(), "ID"); err != nil {
		t.Fatal(err)
	}
	return a
}

func insertRows(t *testing.T, a *Accelerator, txn int64, n int) {
	t.Helper()
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i)), types.NewString(fmt.Sprintf("tag%d", i%3))}
	}
	if _, err := a.Insert(txn, "T", rows); err != nil {
		t.Fatal(err)
	}
}

func selectStmt(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparse.SelectStmt)
}

func TestDDLAndStats(t *testing.T) {
	a := newAccel(t)
	if !a.HasTable("t") {
		t.Fatal("table should exist (case-insensitive)")
	}
	if err := a.CreateTable("T", testSchema(), ""); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if err := a.DropTable("missing"); err == nil {
		t.Fatal("dropping missing table should fail")
	}
	if got := a.TableNames(); len(got) != 1 || got[0] != "T" {
		t.Fatalf("table names: %v", got)
	}
	if a.Stats().Slices != 4 {
		t.Fatal("slice count lost")
	}
}

// TestStatsAddFoldsEveryCounter gives every numeric Stats field a distinct
// value and checks that Add sums each one except Tables and leaves Name alone,
// so a counter added to Stats but not to Add fails here.
func TestStatsAddFoldsEveryCounter(t *testing.T) {
	got, o := Stats{Name: "GROUP"}, Stats{Name: "MEMBER"}
	gv, ov := reflect.ValueOf(&got).Elem(), reflect.ValueOf(&o).Elem()
	for i := 0; i < gv.NumField(); i++ {
		switch f := gv.Type().Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			gv.Field(i).SetInt(int64(1000 * (i + 1)))
			ov.Field(i).SetInt(int64(i + 1))
		case reflect.String:
		default:
			t.Fatalf("field %s has kind %s: teach Add and this test about it", f.Name, f.Type.Kind())
		}
	}
	want := got
	got.Add(o)
	wv := reflect.ValueOf(want)
	gv = reflect.ValueOf(got)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "Name" || name == "Tables" {
			if gv.Field(i).Interface() != wv.Field(i).Interface() {
				t.Errorf("Add changed %s: %v -> %v", name, wv.Field(i), gv.Field(i))
			}
			continue
		}
		if sum := wv.Field(i).Int() + ov.Field(i).Int(); gv.Field(i).Int() != sum {
			t.Errorf("Add left %s at %d, want %d", name, gv.Field(i).Int(), sum)
		}
	}
}

func TestQuerySnapshotIsolation(t *testing.T) {
	a := newAccel(t)
	insertRows(t, a, 100, 10)
	a.CommitTxn(100)

	// Uncommitted txn 200 adds rows: only visible to itself.
	insertRows(t, a, 200, 5)
	q := selectStmt(t, "SELECT COUNT(*) FROM t")

	relOwn, err := a.Query(200, q)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := relOwn.Rows[0][0].AsInt(); n != 15 {
		t.Fatalf("own txn sees %d rows, want 15", n)
	}
	relOther, err := a.Query(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := relOther.Rows[0][0].AsInt(); n != 10 {
		t.Fatalf("anonymous snapshot sees %d rows, want 10", n)
	}

	// After abort the rows stay invisible to everyone.
	a.AbortTxn(200)
	relAfter, _ := a.Query(0, q)
	if n, _ := relAfter.Rows[0][0].AsInt(); n != 10 {
		t.Fatalf("after abort %d rows, want 10", n)
	}

	// A snapshot taken before a commit does not see that commit (repeatable
	// reads within the statement); a later snapshot does.
	insertRows(t, a, 300, 3)
	a.CommitTxn(300)
	relNew, _ := a.Query(0, q)
	if n, _ := relNew.Rows[0][0].AsInt(); n != 13 {
		t.Fatalf("new snapshot sees %d, want 13", n)
	}
}

func TestUpdateDeleteTruncate(t *testing.T) {
	a := newAccel(t)
	insertRows(t, a, 1, 10)
	a.CommitTxn(1)

	upd, err := sqlparse.Parse("UPDATE t SET v = v + 100 WHERE id < 3")
	if err != nil {
		t.Fatal(err)
	}
	u := upd.(*sqlparse.UpdateStmt)
	n, err := a.Update(2, "T", u.Assignments, u.Where)
	if err != nil || n != 3 {
		t.Fatalf("update: %d, %v", n, err)
	}
	a.CommitTxn(2)
	rel, _ := a.Query(0, selectStmt(t, "SELECT SUM(v) FROM t WHERE id < 3"))
	if s, _ := rel.Rows[0][0].AsFloat(); s != 303 {
		t.Fatalf("sum after update = %v", s)
	}

	del, _ := sqlparse.Parse("DELETE FROM t WHERE id >= 8")
	n, err = a.Delete(3, "T", del.(*sqlparse.DeleteStmt).Where)
	if err != nil || n != 2 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	a.CommitTxn(3)
	if n, _ := a.RowCount(0, "T"); n != 8 {
		t.Fatalf("row count after delete = %d", n)
	}

	cnt, err := a.Truncate(4, "T")
	if err != nil || cnt != 8 {
		t.Fatalf("truncate: %d, %v", cnt, err)
	}
	a.CommitTxn(4)
	if n, _ := a.RowCount(0, "T"); n != 0 {
		t.Fatalf("row count after truncate = %d", n)
	}
}

func TestQueryPushdownAndJoins(t *testing.T) {
	a := newAccel(t)
	insertRows(t, a, 1, 100)
	a.CommitTxn(1)
	if err := a.CreateTable("D", types.NewSchema(
		types.Column{Name: "TAG", Kind: types.KindString},
		types.Column{Name: "WEIGHT", Kind: types.KindFloat},
	), ""); err != nil {
		t.Fatal(err)
	}
	_, _ = a.Insert(2, "D", []types.Row{
		{types.NewString("tag0"), types.NewFloat(1)},
		{types.NewString("tag1"), types.NewFloat(2)},
	})
	a.CommitTxn(2)

	rel, err := a.Query(0, selectStmt(t, "SELECT COUNT(*) FROM t WHERE v >= 50 AND v < 60"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rel.Rows[0][0].AsInt(); n != 10 {
		t.Fatalf("pushdown filter count = %d", n)
	}

	rel, err = a.Query(0, selectStmt(t,
		"SELECT d.tag, COUNT(*) AS n, SUM(t.v * d.weight) AS w FROM t INNER JOIN d ON t.tag = d.tag GROUP BY d.tag ORDER BY d.tag"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 2 {
		t.Fatalf("join groups = %d", len(rel.Rows))
	}

	rel, err = a.Query(0, selectStmt(t, "SELECT x.tag, x.n FROM (SELECT tag, COUNT(*) AS n FROM t GROUP BY tag) AS x WHERE x.n > 30 ORDER BY x.tag"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 3 {
		t.Fatalf("subquery rows = %d", len(rel.Rows))
	}
}

func TestReplicatedApplyPaths(t *testing.T) {
	a := newAccel(t)
	rows := []types.Row{
		{types.NewInt(1), types.NewFloat(1), types.NewString("a")},
		{types.NewInt(2), types.NewFloat(2), types.NewString("b")},
	}
	if _, err := a.InsertReplicated("T", rows, []int64{10, 11}); err != nil {
		t.Fatal(err)
	}
	if n, _ := a.RowCount(0, "T"); n != 2 {
		t.Fatalf("replicated rows = %d", n)
	}
	if err := a.ApplyReplicatedUpdate("T", 10, types.Row{types.NewInt(1), types.NewFloat(99), types.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.ApplyReplicatedDelete("T", 11); !ok {
		t.Fatal("replicated delete failed")
	}
	rel, _ := a.Query(0, selectStmt(t, "SELECT v FROM t"))
	if len(rel.Rows) != 1 {
		t.Fatalf("rows after apply = %d", len(rel.Rows))
	}
	if f, _ := rel.Rows[0][0].AsFloat(); f != 99 {
		t.Fatalf("updated value = %v", f)
	}
}

func TestPrepareCommitStateMachine(t *testing.T) {
	r := NewRegistry()
	r.Ensure(7)
	if err := r.Prepare(7); err != nil {
		t.Fatal(err)
	}
	r.Commit(7)
	if err := r.Prepare(7); err == nil {
		t.Fatal("preparing a committed txn should fail")
	}
	r.Abort(8)
	if err := r.Prepare(8); err == nil {
		t.Fatal("preparing an aborted txn should fail")
	}
	if r.State(7) != TxnCommitted || r.State(8) != TxnAborted {
		t.Fatal("states wrong")
	}
	if r.State(999) != TxnAborted {
		t.Fatal("unknown txn should read as aborted")
	}
}

func TestConcurrentInsertsAndQueries(t *testing.T) {
	a := newAccel(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := int64(1000 + w)
			rows := make([]types.Row, 50)
			for i := range rows {
				rows[i] = types.Row{types.NewInt(int64(w*100 + i)), types.NewFloat(float64(i)), types.NewString("c")}
			}
			if _, err := a.Insert(txn, "T", rows); err != nil {
				t.Error(err)
				return
			}
			a.CommitTxn(txn)
			if _, err := a.Query(0, selectStmt(t, "SELECT COUNT(*) FROM t")); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if n, _ := a.RowCount(0, "T"); n != 400 {
		t.Fatalf("final count = %d", n)
	}
}

// TestAbortUndoesDeleteMarkers is the regression test for rolled-back
// deletes: before the fix, an aborted transaction's delete markers stayed on
// the row versions forever — reads were correct (aborted deleters are
// invisible) but no later transaction could ever delete those rows again.
func TestAbortUndoesDeleteMarkers(t *testing.T) {
	a := newAccel(t)
	insertRows(t, a, 1, 10)
	a.CommitTxn(1)

	n, err := a.Delete(2, "T", nil)
	if err != nil || n != 10 {
		t.Fatalf("delete marked %d rows, %v", n, err)
	}
	a.AbortTxn(2)

	if got, _ := a.RowCount(0, "T"); got != 10 {
		t.Fatalf("rows visible after aborted delete: %d, want 10", got)
	}
	// The rows must be deletable again by a later transaction.
	n, err = a.Delete(3, "T", nil)
	if err != nil || n != 10 {
		t.Fatalf("re-delete after abort marked %d rows, %v (delete markers not undone)", n, err)
	}
	a.CommitTxn(3)
	if got, _ := a.RowCount(0, "T"); got != 0 {
		t.Fatalf("rows visible after committed re-delete: %d, want 0", got)
	}
}

// TestBulkExportImport covers ImportRows with mixed source ids: each row keeps
// the DB2 source id it was imported with.
func TestBulkExportImport(t *testing.T) {
	a := newAccel(t)
	rows := []types.Row{
		{types.NewInt(1), types.NewFloat(1), types.NewString("a")},
		{types.NewInt(2), types.NewFloat(2), types.NewString("b")},
		{types.NewInt(3), types.NewFloat(3), types.NewString("c")},
	}
	n, err := a.ImportRows("T", rows, []int64{10, -1, 30})
	if err != nil || n != 3 {
		t.Fatalf("ImportRows = %d, %v", n, err)
	}
	if !a.HasReplicatedSource("T", 10) || a.HasReplicatedSource("T", -1) {
		t.Fatal("source-id index wrong after mixed import")
	}
	tab, err := a.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, got := tab.VersionMeta(); len(got) != 3 || got[0] != 10 || got[1] != -1 || got[2] != 30 {
		t.Fatalf("imported source ids %v", got)
	}
}
