package colstore

import (
	"testing"
	"testing/quick"

	"idaax/internal/types"
)

func testSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "V", Kind: types.KindFloat},
		types.Column{Name: "S", Kind: types.KindString},
	)
}

func row(id int64, v float64, s string) types.Row {
	return types.Row{types.NewInt(id), types.NewFloat(v), types.NewString(s)}
}

// allVisible is a Visibility treating every non-deleted version as visible.
func allVisible(created, deleted int64) bool { return deleted == 0 }

func TestInsertAndReadRow(t *testing.T) {
	tab := NewTable("T", testSchema(), "ID")
	n, err := tab.Insert(1, []types.Row{row(1, 1.5, "a"), row(2, 2.5, "b")})
	if err != nil || n != 2 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	if tab.VersionCount() != 2 {
		t.Fatalf("versions = %d", tab.VersionCount())
	}
	r := tab.ReadRow(1)
	if r[0].Int != 2 || r[1].Float != 2.5 || r[2].Str != "b" {
		t.Fatalf("read row: %+v", r)
	}
	if tab.DistKey() != "ID" || tab.Name() != "T" {
		t.Error("metadata lost")
	}
	if _, err := tab.Insert(1, []types.Row{{types.Null(), types.NewFloat(1), types.NewString("x")}}); err == nil {
		t.Error("NOT NULL violation should fail")
	}
}

func TestMVCCVisibility(t *testing.T) {
	tab := NewTable("T", testSchema(), "")
	_, _ = tab.Insert(10, []types.Row{row(1, 1, "a")})
	_, _ = tab.Insert(20, []types.Row{row(2, 2, "b")})

	// Only txn 10's row committed.
	vis := func(created, deleted int64) bool {
		committed := created == 10
		own := created == 30
		if !(committed || own) {
			return false
		}
		return deleted == 0
	}
	if got := tab.VisibleRowCount(vis); got != 1 {
		t.Fatalf("visible = %d", got)
	}

	// Delete by an uncommitted foreign transaction stays invisible to others.
	if !tab.MarkDeleted(0, 99) {
		t.Fatal("mark deleted failed")
	}
	visIgnoringDelete := func(created, deleted int64) bool {
		return created == 10 && (deleted == 0 || deleted != 10)
	}
	if got := tab.VisibleRowCount(visIgnoringDelete); got != 1 {
		t.Fatalf("delete by uncommitted txn should not hide the row here, visible = %d", got)
	}
	// Undo the delete (rollback).
	tab.UndoDelete(0, 99)
	if got := tab.VisibleRowCount(allVisible); got != 2 {
		t.Fatalf("after undo visible = %d", got)
	}
	// Double delete of the same version fails.
	if !tab.MarkDeleted(0, 99) || tab.MarkDeleted(0, 100) {
		t.Fatal("second delete of the same version should fail")
	}
}

func TestSourceRowTracking(t *testing.T) {
	tab := NewTable("T", testSchema(), "")
	_, err := tab.InsertWithSource(1, []types.Row{row(1, 1, "a"), row(2, 2, "b")}, []int64{100, 101})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.DeleteBySource(2, 100) {
		t.Fatal("delete by source failed")
	}
	if tab.DeleteBySource(2, 100) {
		t.Fatal("second delete by source should fail")
	}
	if err := tab.UpdateBySource(3, 101, row(2, 20, "bb")); err != nil {
		t.Fatal(err)
	}
	live := tab.VisibleIndices(allVisible)
	if len(live) != 1 {
		t.Fatalf("live versions = %d", len(live))
	}
	if r := tab.ReadRow(live[0]); r[1].Float != 20 {
		t.Fatalf("updated value = %v", r[1])
	}
	// Updating a source id that was never replicated inserts the new image.
	if err := tab.UpdateBySource(4, 999, row(9, 9, "new")); err != nil {
		t.Fatal(err)
	}
	if got := tab.VisibleRowCount(allVisible); got != 2 {
		t.Fatalf("after upsert visible = %d", got)
	}
}

func TestTruncateVisible(t *testing.T) {
	tab := NewTable("T", testSchema(), "")
	_, _ = tab.Insert(1, []types.Row{row(1, 1, "a"), row(2, 2, "b"), row(3, 3, "c")})
	n := tab.TruncateVisible(2, allVisible)
	if n != 3 {
		t.Fatalf("truncated %d", n)
	}
	if got := tab.VisibleRowCount(allVisible); got != 0 {
		t.Fatalf("visible after truncate = %d", got)
	}
}

func TestParallelScanWithPredicatesAndZoneMaps(t *testing.T) {
	tab := NewTable("T", testSchema(), "")
	var rows []types.Row
	for i := 0; i < 3*ZoneBlockSize; i++ {
		rows = append(rows, row(int64(i), float64(i), "s"))
	}
	if _, err := tab.Insert(1, rows); err != nil {
		t.Fatal(err)
	}
	// Predicate selecting only the last block's range.
	pred := NewSimplePredicate(0, CmpGe, types.NewInt(int64(2*ZoneBlockSize+10)))
	out, stats := tab.ParallelScan(4, allVisible, []SimplePredicate{pred})
	want := ZoneBlockSize - 10
	if len(out) != want {
		t.Fatalf("scan returned %d rows, want %d", len(out), want)
	}
	if stats.BlocksPruned == 0 {
		t.Error("zone maps should have pruned at least one block")
	}
	// Equality predicate far outside the data range prunes everything.
	out, stats = tab.ParallelScan(4, allVisible, []SimplePredicate{NewSimplePredicate(0, CmpEq, types.NewInt(1<<40))})
	if len(out) != 0 || stats.BlocksPruned == 0 {
		t.Fatalf("out-of-range equality: %d rows, %d pruned", len(out), stats.BlocksPruned)
	}
}

func TestParallelScanSliceCountsAgree(t *testing.T) {
	tab := NewTable("T", testSchema(), "")
	var rows []types.Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, row(int64(i), float64(i%7), "x"))
	}
	_, _ = tab.Insert(1, rows)
	pred := []SimplePredicate{NewSimplePredicate(1, CmpLt, types.NewFloat(3))}
	ref, _ := tab.ParallelScan(1, allVisible, pred)
	for _, slices := range []int{2, 4, 16} {
		got, _ := tab.ParallelScan(slices, allVisible, pred)
		if len(got) != len(ref) {
			t.Fatalf("slices=%d returned %d rows, want %d", slices, len(got), len(ref))
		}
	}
}

// TestScanEquivalenceProperty: for random data and a random threshold, the
// pushdown scan returns exactly the rows a naive full scan would.
func TestScanEquivalenceProperty(t *testing.T) {
	f := func(vals []int16, threshold int16, slices uint8) bool {
		if len(vals) == 0 {
			return true
		}
		tab := NewTable("P", testSchema(), "")
		rows := make([]types.Row, len(vals))
		for i, v := range vals {
			rows[i] = row(int64(i), float64(v), "x")
		}
		if _, err := tab.Insert(1, rows); err != nil {
			return false
		}
		pred := NewSimplePredicate(1, CmpGt, types.NewFloat(float64(threshold)))
		got, _ := tab.ParallelScan(int(slices%8)+1, allVisible, []SimplePredicate{pred})
		want := 0
		for _, v := range vals {
			if float64(v) > float64(threshold) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestColumnKindsAndNulls(t *testing.T) {
	col := NewColumn(types.KindFloat)
	col.Append(types.NewFloat(1.5))
	col.Append(types.Null())
	if col.Len() != 2 || !col.IsNull(1) || col.Value(0).Float != 1.5 {
		t.Fatalf("column state wrong")
	}
	if _, ok := col.Numeric(1); ok {
		t.Error("NULL should not be numeric")
	}
	min, max, ok := col.BlockRange(0)
	if !ok || min != 1.5 || max != 1.5 {
		t.Errorf("zone map: %v %v %v", min, max, ok)
	}
	bcol := NewColumn(types.KindBool)
	bcol.Append(types.NewBool(true))
	if v := bcol.Value(0); !v.Bool {
		t.Error("bool round trip")
	}
	tcol := NewColumn(types.KindTimestamp)
	tcol.Append(types.NewTimestampMicros(123456))
	if v := tcol.Value(0); v.Int != 123456 || v.Kind != types.KindTimestamp {
		t.Error("timestamp round trip")
	}
	scol := NewColumn(types.KindString)
	scol.Append(types.NewString("hi"))
	if scol.IsNumeric() || scol.ApproxBytes() == 0 {
		t.Error("string column properties")
	}
}

func TestTableResources(t *testing.T) {
	tab := NewTable("T", testSchema(), "ID")
	rows := make([]types.Row, ZoneBlockSize+10) // span two blocks
	for i := range rows {
		rows[i] = row(int64(i), float64(i), "abc")
	}
	if _, err := tab.Insert(1, rows); err != nil {
		t.Fatal(err)
	}
	res := tab.Resources()
	if res.Table != "T" || res.Rows != int64(len(rows)) {
		t.Fatalf("resources header = %+v", res)
	}
	if len(res.Columns) != 3 {
		t.Fatalf("columns = %d", len(res.Columns))
	}
	if res.Blocks != 2 {
		t.Fatalf("blocks = %d, want 2", res.Blocks)
	}
	var sum int64
	for _, c := range res.Columns {
		if c.Bytes <= 0 || c.Blocks != 2 {
			t.Fatalf("column %+v", c)
		}
		sum += c.Bytes
	}
	if res.Bytes <= sum {
		t.Fatalf("table bytes %d should exceed column sum %d (version metadata)", res.Bytes, sum)
	}
	if res.Bytes < tab.ApproxBytes() {
		t.Fatalf("Resources bytes %d < ApproxBytes %d", res.Bytes, tab.ApproxBytes())
	}
	// String column carries string zone maps on top of the numeric slots.
	s := res.Columns[2]
	if s.Kind != "VARCHAR" {
		t.Fatalf("kind = %q", s.Kind)
	}
	if s.ZoneMapEntries <= res.Columns[0].ZoneMapEntries {
		t.Fatalf("string column zone entries %d should exceed int column's %d", s.ZoneMapEntries, res.Columns[0].ZoneMapEntries)
	}
}

// TestAbortSweepRestoresSourceIndex checks both abort sweeps (the journaled
// UndoDeletesBy and recovery's ClearMarksBy): the source ids of versions the
// aborted transaction created leave the index, and the ids its delete markers
// hid point at their old versions again — also when the transaction replaced
// a row, or inserted and then deleted one.
func TestAbortSweepRestoresSourceIndex(t *testing.T) {
	for name, sweep := range map[string]func(*Table, int64) int{
		"UndoDeletesBy": (*Table).UndoDeletesBy,
		"ClearMarksBy":  (*Table).ClearMarksBy,
	} {
		t.Run(name, func(t *testing.T) {
			tab := NewTable("T", testSchema(), "")
			if _, err := tab.InsertWithSource(1, []types.Row{row(1, 1, "a")}, []int64{100}); err != nil {
				t.Fatal(err)
			}
			// Transaction 2 replaces 100, adds 101, and adds then deletes 102.
			if err := tab.UpdateBySource(2, 100, row(1, 10, "a")); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.InsertWithSource(2, []types.Row{row(2, 2, "b"), row(3, 3, "c")}, []int64{101, 102}); err != nil {
				t.Fatal(err)
			}
			tab.DeleteBySource(2, 102)
			if n := sweep(tab, 2); n != 2 {
				t.Fatalf("sweep cleared %d markers, want 2", n)
			}
			if tab.HasSource(101) || tab.HasSource(102) {
				t.Fatal("aborted inserts still indexed: a re-applied batch would skip them")
			}
			if !tab.DeleteBySource(3, 100) {
				t.Fatal("source 100 no longer reaches its original version")
			}
			if _, deleted, _ := tab.VersionMeta(); deleted[0] != 3 {
				t.Fatalf("delete of source 100 marked versions %v, want the original", deleted)
			}
		})
	}
}

// TestRestoreSweepsUncommittedSources pins recovery's half of the abort
// sweep. A checkpoint image keeps the versions of a transaction that aborted
// before it was taken, and RestoreTable indexes their source ids like any
// other; SweepUncommitted, run once the registry's verdicts are final, must
// drop exactly those entries and keep the committed ones.
func TestRestoreSweepsUncommittedSources(t *testing.T) {
	tab := NewTable("T", testSchema(), "")
	if _, err := tab.InsertWithSource(-1, []types.Row{row(1, 1, "a")}, []int64{100}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InsertWithSource(-2, []types.Row{row(2, 2, "b")}, []int64{200}); err != nil {
		t.Fatal(err)
	}
	tab.UndoDeletesBy(-1) // the abort of txn -1: the live table forgets source 100
	if tab.HasSource(100) || !tab.HasSource(200) {
		t.Fatal("live abort sweep did not drop source 100 alone")
	}

	restored := RestoreTable(tab.Snapshot())
	committed := func(txnID int64) bool { return txnID == -2 }
	if n := restored.SweepUncommitted(committed); n != 1 {
		t.Fatalf("swept %d creators, want 1 (txn -1)", n)
	}
	if restored.HasSource(100) {
		t.Fatal("restored table still indexes source 100 of the aborted txn -1: a retried batch would skip it")
	}
	if !restored.HasSource(200) {
		t.Fatal("restored table lost source 200 of the committed txn -2")
	}
	if _, err := restored.InsertWithSource(-3, []types.Row{row(1, 1, "a")}, []int64{100}); err != nil {
		t.Fatal(err)
	}
	if !restored.HasSource(100) {
		t.Fatal("the retried insert of source 100 is not indexed")
	}
}

type opLog []*TableOp

func (l *opLog) LogTableOp(op *TableOp) { *l = append(*l, op) }

// TestInsertFailingRowJournalsPrefix pins what a row that fails validation
// mid-batch leaves behind: the rows before it are appended and journaled as
// one coerced insert op, the error names the column, and the journaled rows
// are separate full slices of the batch's slab.
func TestInsertFailingRowJournalsPrefix(t *testing.T) {
	tab := NewTable("T", testSchema(), "")
	var log opLog
	tab.SetJournal(&log)
	rows := []types.Row{
		{types.NewString("1"), types.NewInt(2), types.NewString("a")},
		row(2, 2.5, "b"),
		{types.Null(), types.NewFloat(1), types.NewString("c")},
		row(4, 4.5, "d"),
	}
	n, err := tab.Insert(7, rows)
	if n != 2 || err == nil || err.Error() != "types: NULL value for NOT NULL column ID" {
		t.Fatalf("Insert = %d, %v; want 2 rows and the NOT NULL error", n, err)
	}
	if tab.VersionCount() != 2 || len(log) != 1 {
		t.Fatalf("%d versions, %d journal ops; want 2 and 1", tab.VersionCount(), len(log))
	}
	op := log[0]
	if op.Kind != TableOpInsert || op.Base != 0 || op.Txn != 7 || len(op.Rows) != 2 {
		t.Fatalf("journaled op %+v", op)
	}
	if op.Rows[0][0] != types.NewInt(1) || op.Rows[0][1] != types.NewFloat(2) {
		t.Errorf("journaled row 0 = %v, want coerced values", op.Rows[0])
	}
	for i, r := range op.Rows {
		if len(r) != 3 || cap(r) != 3 {
			t.Errorf("journaled row %d: len %d cap %d, want 3 and 3", i, len(r), cap(r))
		}
	}
}

// insertBatch is n rows of testSchema with distinct ids and a few distinct
// strings, the shape one INSERT … VALUES statement hands the table.
func insertBatch(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = row(int64(i), float64(i)/4, "region-"+string(rune('a'+i%7)))
	}
	return rows
}

// TestTableInsertAllocs pins the insert path's allocation rule: a batch is
// validated into one slab and its values hash without allocating, so twice
// the rows costs the same order of allocations, not twice as many.
func TestTableInsertAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		rows := insertBatch(n)
		return testing.AllocsPerRun(20, func() {
			if _, err := NewTable("T", testSchema(), "ID").Insert(1, rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(1000)
	t.Logf("allocations: %.0f for 500 rows, %.0f for 1000 rows", small, large)
	if large > 1.5*small || large-small > 50 {
		t.Errorf("%.0f allocations for 1000 rows vs %.0f for 500, want the same order", large, small)
	}
}

func BenchmarkTableInsert(b *testing.B) {
	rows := insertBatch(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTable("T", testSchema(), "ID").Insert(1, rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows/op")
}
