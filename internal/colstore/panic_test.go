package colstore

import (
	"errors"
	"testing"
	"time"

	"idaax/internal/par"
	"idaax/internal/types"
)

// insertWithin fails the test unless the table accepts a write before the
// timeout — it cannot while a scan's read lock is still held.
func insertWithin(t *testing.T, tab *Table, timeout time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := tab.Insert(3, []types.Row{{types.NewInt(-1), types.Null(), types.Null(), types.Null(), types.Null()}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(timeout):
		t.Fatal("Insert blocked: the scan did not release the table's read lock")
	}
}

// TestScanBatchesCallbackPanic panics in the batch callback, inline (one
// slice) and on a worker goroutine (four): ScanBatches returns the panic as
// a *par.PanicError and the table still takes writes.
func TestScanBatchesCallbackPanic(t *testing.T) {
	for _, slices := range []int{1, 4} {
		tab, vis := buildMixedTable(t, 4*ZoneBlockSize)
		_, err := tab.ScanBatches(slices, vis, nil, func(worker int, b *Batch) error {
			if worker == slices-1 {
				panic("callback exploded")
			}
			return nil
		})
		var pe *par.PanicError
		if !errors.As(err, &pe) || pe.Value != "callback exploded" {
			t.Fatalf("slices=%d: err = %v, want the callback's panic", slices, err)
		}
		insertWithin(t, tab, 10*time.Second)
	}
}

// TestRowScansReraiseWorkerPanic: the scans without an error result re-raise
// a slice worker's panic on the caller's goroutine as the *par.PanicError,
// after releasing the read lock.
func TestRowScansReraiseWorkerPanic(t *testing.T) {
	scans := map[string]func(*Table, Visibility){
		"ParallelScan":    func(tab *Table, vis Visibility) { tab.ParallelScan(4, vis, nil) },
		"ScanMaterialize": func(tab *Table, vis Visibility) { tab.ScanMaterialize(4, vis, nil) },
	}
	for name, scan := range scans {
		tab, _ := buildMixedTable(t, 4*ZoneBlockSize)
		vis := func(created, deleted int64) bool { panic("visibility exploded") }
		got := func() (v any) {
			defer func() { v = recover() }()
			scan(tab, vis)
			return nil
		}()
		pe, ok := got.(*par.PanicError)
		if !ok || pe.Value != "visibility exploded" || len(pe.Stack) == 0 {
			t.Fatalf("%s: recovered %v, want a *par.PanicError", name, got)
		}
		insertWithin(t, tab, 10*time.Second)
	}
}
