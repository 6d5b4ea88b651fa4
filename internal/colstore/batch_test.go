package colstore

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"idaax/internal/types"
)

// buildMixedTable creates a table spanning several zone blocks with every
// column kind, NULLs sprinkled in, and some rows deleted.
func buildMixedTable(t *testing.T, n int) (*Table, Visibility) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindFloat},
		types.Column{Name: "S", Kind: types.KindString},
		types.Column{Name: "B", Kind: types.KindBool},
		types.Column{Name: "TS", Kind: types.KindTimestamp},
	)
	tab := NewTable("MIX", schema, "")
	rng := rand.New(rand.NewSource(7))
	rows := make([]types.Row, n)
	for i := range rows {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(rng.Intn(1000)) / 4),
			types.NewString(fmt.Sprintf("s-%03d", rng.Intn(500))),
			types.NewBool(i%2 == 0),
			types.NewTimestampMicros(int64(1700000000000000 + i)),
		}
		if i%11 == 0 {
			row[1] = types.Null()
		}
		if i%13 == 0 {
			row[2] = types.Null()
		}
		rows[i] = row
	}
	if _, err := tab.Insert(1, rows); err != nil {
		t.Fatal(err)
	}
	// Delete a scattered subset under a different transaction.
	for i := 0; i < n; i += 17 {
		tab.MarkDeleted(i, 2)
	}
	// Committed-data snapshot: txn 1 committed, txn 2's deletes visible too.
	vis := func(created, deleted int64) bool { return created == 1 && deleted == 0 }
	return tab, vis
}

func rowsEqual(t *testing.T, want, got []types.Row, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: row %d arity mismatch", label, i)
		}
		for j := range want[i] {
			if want[i][j].String() != got[i][j].String() {
				t.Fatalf("%s: row %d col %d: %s vs %s", label, i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestScanMaterializeMatchesParallelScan pins the batch scan against the row
// scan: same rows, same order, same pruning — across predicate shapes,
// parallelism degrees and NULL/deleted-row patterns.
func TestScanMaterializeMatchesParallelScan(t *testing.T) {
	tab, vis := buildMixedTable(t, 3*ZoneBlockSize+500)
	predSets := [][]SimplePredicate{
		nil,
		{NewSimplePredicate(0, CmpGt, types.NewInt(5000))},
		{NewSimplePredicate(1, CmpLe, types.NewFloat(120.5))},
		{NewSimplePredicate(0, CmpGe, types.NewInt(100)), NewSimplePredicate(0, CmpLt, types.NewInt(9000)), NewSimplePredicate(1, CmpNe, types.NewFloat(10))},
		{NewSimplePredicate(2, CmpEq, types.NewString("s-100"))},
		{NewSimplePredicate(2, CmpGt, types.NewString("s-400"))},
		{NewSimplePredicate(3, CmpEq, types.NewBool(true))},
		{NewSimplePredicate(4, CmpLt, types.NewTimestampMicros(1700000000004000))},
		// Odd kind combinations: types.Compare rejects them, so the predicate
		// matches no row — on both scan implementations.
		{NewSimplePredicate(2, CmpEq, types.NewInt(7))},      // string col vs int lit
		{NewSimplePredicate(3, CmpEq, types.NewInt(1))},      // bool col vs int lit
		{NewSimplePredicate(0, CmpGt, types.NewBool(true))},  // int col vs bool lit
		{NewSimplePredicate(1, CmpEq, types.NewBool(false))}, // float col vs bool lit
		{NewSimplePredicate(3, CmpEq, types.NewBool(true))},  // bool col vs bool lit (matches)
		// Numeric column vs numeric string literal (isNum stays false) takes
		// the generic fallback on both paths.
		{NewSimplePredicate(0, CmpLt, types.NewString("200"))},
	}
	for pi, preds := range predSets {
		for _, slices := range []int{1, 3, 8} {
			want, wantStats := tab.ParallelScan(slices, vis, preds)
			got, gotStats := tab.ScanMaterialize(slices, vis, preds)
			label := fmt.Sprintf("preds[%d] slices=%d", pi, slices)
			rowsEqual(t, want, got, label)
			if wantStats.BlocksPruned != gotStats.BlocksPruned {
				t.Fatalf("%s: pruned %d blocks vs %d", label, wantStats.BlocksPruned, gotStats.BlocksPruned)
			}
			if gotStats.RowsMaterialized != len(got) {
				t.Fatalf("%s: RowsMaterialized=%d for %d rows", label, gotStats.RowsMaterialized, len(got))
			}
		}
	}
}

// TestStringZoneMapPruning pins satellite 6: string min/max zone entries prune
// blocks for string predicates, and pruning is never incorrect — every scan
// returns exactly the rows a full scan plus row filter returns.
func TestStringZoneMapPruning(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "TAG", Kind: types.KindString},
	)
	tab := NewTable("CLUSTERED", schema, "")
	// Clustered string values: block k holds tags "t-k-*" (lexicographically
	// grouped because k is zero-padded), so equality predicates can skip
	// whole blocks.
	n := 4 * ZoneBlockSize
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		block := i / ZoneBlockSize
		tag := types.NewString(fmt.Sprintf("t-%02d-%04d", block, i%977))
		if i%53 == 0 {
			tag = types.Null()
		}
		rows = append(rows, types.Row{types.NewInt(int64(i)), tag})
	}
	if _, err := tab.Insert(1, rows); err != nil {
		t.Fatal(err)
	}
	vis := func(created, deleted int64) bool { return deleted == 0 }

	naive := func(pred SimplePredicate) []types.Row {
		var out []types.Row
		all, _ := tab.ParallelScan(1, vis, nil)
		for _, row := range all {
			v := row[pred.ColIdx]
			if v.IsNull() {
				continue
			}
			c, err := types.Compare(v, pred.Value)
			if err != nil {
				continue
			}
			if cmpSatisfies(c, pred.Op) {
				out = append(out, row)
			}
		}
		return out
	}

	preds := []SimplePredicate{
		NewSimplePredicate(1, CmpEq, types.NewString("t-02-0500")),
		NewSimplePredicate(1, CmpLt, types.NewString("t-01")),
		NewSimplePredicate(1, CmpGe, types.NewString("t-03")),
		NewSimplePredicate(1, CmpGt, types.NewString("t-99")), // matches nothing
		NewSimplePredicate(1, CmpNe, types.NewString("t-00-0000")),
	}
	prunedSomewhere := false
	for pi, pred := range preds {
		want := naive(pred)
		for _, scan := range []string{"row", "batch"} {
			var got []types.Row
			var stats ScanStats
			if scan == "row" {
				got, stats = tab.ParallelScan(2, vis, []SimplePredicate{pred})
			} else {
				got, stats = tab.ScanMaterialize(2, vis, []SimplePredicate{pred})
			}
			rowsEqual(t, want, got, fmt.Sprintf("string pred[%d] %s scan", pi, scan))
			if stats.BlocksPruned > 0 {
				prunedSomewhere = true
			}
		}
	}
	if !prunedSomewhere {
		t.Fatal("string zone maps never pruned a block on clustered data")
	}

	// An all-NULL string block is prunable outright (NULL never matches).
	nullTab := NewTable("NULLS", schema, "")
	nullRows := make([]types.Row, ZoneBlockSize)
	for i := range nullRows {
		nullRows[i] = types.Row{types.NewInt(int64(i)), types.Null()}
	}
	if _, err := nullTab.Insert(1, nullRows); err != nil {
		t.Fatal(err)
	}
	got, stats := nullTab.ParallelScan(1, vis, []SimplePredicate{NewSimplePredicate(1, CmpEq, types.NewString("x"))})
	if len(got) != 0 || stats.BlocksPruned != 1 {
		t.Fatalf("all-NULL string block: %d rows, %d pruned", len(got), stats.BlocksPruned)
	}
}

// TestScanBatchesSelectionSemantics pins batch shape invariants: selections
// are ascending in-range offsets and Materialize reconstructs exact rows.
func TestScanBatchesSelectionSemantics(t *testing.T) {
	tab, vis := buildMixedTable(t, ZoneBlockSize+123)
	preds := []SimplePredicate{NewSimplePredicate(0, CmpGe, types.NewInt(10))}
	var seen atomic.Int64
	_, err := tab.ScanBatches(4, vis, preds, func(worker int, b *Batch) error {
		if len(b.Sel) == 0 {
			t.Error("empty batch delivered")
		}
		last := -1
		for _, off := range b.Sel {
			if off <= last || off >= b.N {
				t.Errorf("selection offset %d out of order or range (N=%d)", off, b.N)
			}
			last = off
			id := b.Cols[0].Value(off)
			if id.Int != int64(b.Base+off) {
				t.Errorf("vector value mismatch at base %d off %d: %s", b.Base, off, id)
			}
			seen.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Load() == 0 {
		t.Fatal("no rows delivered")
	}
}

// TestScanBatchesVisibilityRuns pins the visibility run memo: in one block
// that interleaves runs and single versions created by committed, aborted,
// in-flight and the scanning transaction's own writes, some of them deleted
// by each of those, ScanBatches selects exactly the rows vis accepts one by
// one, at every slice count.
func TestScanBatchesVisibilityRuns(t *testing.T) {
	const own, committed, committed2, aborted, inFlight = 5, 1, 2, 3, 4
	vis := func(created, deleted int64) bool { // a snapshot of txn own
		sees := func(txn int64) bool { return txn == own || txn == committed || txn == committed2 }
		return sees(created) && (deleted == 0 || !sees(deleted))
	}
	tab := NewTable("RUNS", testSchema(), "")
	creators := []int64{committed, aborted, inFlight, own, committed2}
	rng := rand.New(rand.NewSource(11))
	id := int64(0)
	for id < ZoneBlockSize+700 {
		run := 1 + rng.Intn(40)
		if rng.Intn(4) == 0 {
			run = 1 // single versions between runs
		}
		rows := make([]types.Row, run)
		for i := range rows {
			rows[i] = row(id, float64(id), "r")
			id++
		}
		if _, err := tab.Insert(creators[rng.Intn(len(creators))], rows); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < int(id); i++ {
		if rng.Intn(5) == 0 {
			tab.MarkDeleted(i, creators[rng.Intn(len(creators))])
		}
	}

	created, deleted, _ := tab.VersionMeta()
	var want []int
	for i := range created {
		if vis(created[i], deleted[i]) {
			want = append(want, i)
		}
	}
	for _, slices := range []int{1, 3} {
		perWorker := make([][]int, slices)
		if _, err := tab.ScanBatches(slices, vis, nil, func(w int, b *Batch) error {
			for _, off := range b.Sel {
				perWorker[w] = append(perWorker[w], b.Base+off)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, rows := range perWorker {
			got = append(got, rows...)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("slices=%d: selected %d rows, vis accepts %d one by one", slices, len(got), len(want))
		}
	}
}

// buildNullableTable has NULLs in every column kind (buildMixedTable only in
// two) so Materialize's typed loops are checked on their NULL branches.
func buildNullableTable(t testing.TB, n int) (*Table, Visibility) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindFloat},
		types.Column{Name: "S", Kind: types.KindString},
		types.Column{Name: "B", Kind: types.KindBool},
		types.Column{Name: "TS", Kind: types.KindTimestamp},
		types.Column{Name: "D", Kind: types.KindString}, // low cardinality: dictionary-encoded
	)
	tab := NewTable("NULLABLE", schema, "")
	rows := make([]types.Row, n)
	for i := range rows {
		row := types.Row{
			types.NewInt(int64(i)), types.NewFloat(float64(i) / 8), types.NewString(fmt.Sprintf("s-%d", i)),
			types.NewBool(i%3 == 0), types.NewTimestampMicros(int64(1700000000000000 + i)), types.NewString(fmt.Sprintf("d%d", i%4)),
		}
		row[(i/2)%len(row)] = types.Null() // every column takes its turn
		rows[i] = row
	}
	if _, err := tab.Insert(1, rows); err != nil {
		t.Fatal(err)
	}
	return tab, func(created, deleted int64) bool { return created == 1 && deleted == 0 }
}

// TestMaterializeMatchesVectorValue: the slab Materialize builds holds, cell
// for cell, exactly what Vector.Value reconstructs — kind and payload, NULLs
// included — for full and sparse selection vectors; rows never share cells;
// and one batch costs one slab (plus at most one growth of dst).
func TestMaterializeMatchesVectorValue(t *testing.T) {
	tab, vis := buildNullableTable(t, 2*BatchSize+77)
	preds := [][]SimplePredicate{nil, {NewSimplePredicate(0, CmpGe, types.NewInt(1000))}, {NewSimplePredicate(5, CmpEq, types.NewString("d2"))}}
	for pi, p := range preds {
		_, err := tab.ScanBatches(1, vis, p, func(_ int, b *Batch) error {
			got := b.Materialize(nil)
			if len(got) != len(b.Sel) {
				return fmt.Errorf("%d rows for %d selected offsets", len(got), len(b.Sel))
			}
			for k, off := range b.Sel {
				if len(got[k]) != len(b.Cols) || cap(got[k]) != len(b.Cols) {
					return fmt.Errorf("row %d has len %d cap %d, want %d", k, len(got[k]), cap(got[k]), len(b.Cols))
				}
				for ci := range b.Cols {
					if want := b.Cols[ci].Value(off); got[k][ci] != want {
						return fmt.Errorf("preds[%d] offset %d col %d: %#v, want %#v", pi, off, ci, got[k][ci], want)
					}
				}
			}
			dst := make([]types.Row, 0, len(b.Sel))
			if allocs := testing.AllocsPerRun(10, func() { dst = b.Materialize(dst[:0]) }); allocs > 2 {
				return fmt.Errorf("Materialize of one batch costs %.0f allocations, budget 2", allocs)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

var materializeSink []types.Row

func BenchmarkMaterialize(b *testing.B) {
	tab, vis := buildNullableTable(b, 10*BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		materializeSink, _ = tab.ScanMaterialize(1, vis, nil)
	}
	b.ReportMetric(float64(len(materializeSink)), "rows/op")
}

// BenchmarkScanBatchesVisibility scans 64k versions under a map-backed
// snapshot check, the shape of accel.Snapshot.Visible. In "runs" one bulk
// insert wrote every version, so the check runs once per batch; in "no-runs"
// every version has its own creator, the visibility memo's worst case.
func BenchmarkScanBatchesVisibility(b *testing.B) {
	const n = 64 * 1024
	for _, c := range []struct {
		name    string
		perTxn  int
		visible map[int64]bool
	}{
		{"runs", n, map[int64]bool{1: true}},
		{"no-runs", 1, make(map[int64]bool, n)},
	} {
		b.Run(c.name, func(b *testing.B) {
			tab := NewTable("VIS", testSchema(), "")
			for txn := int64(1); int(txn-1)*c.perTxn < n; txn++ {
				rows := make([]types.Row, c.perTxn)
				for i := range rows {
					rows[i] = row(txn, 1, "v")
				}
				if _, err := tab.Insert(txn, rows); err != nil {
					b.Fatal(err)
				}
				if c.perTxn == 1 {
					c.visible[txn] = true
				}
			}
			vis := func(created, deleted int64) bool { return c.visible[created] && deleted == 0 }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ScanBatches(1, vis, nil, func(int, *Batch) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
