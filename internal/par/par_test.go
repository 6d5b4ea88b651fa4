package par

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestDoRunsEveryIndexAndKeepsOrder(t *testing.T) {
	const n = 64
	out := make([]int, n)
	if err := Do(n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestDoLowestIndexErrorWins(t *testing.T) {
	// Index 2 fails only after index 7 has failed; the lowest failing index
	// must still be the one reported.
	late := make(chan struct{})
	err := Do(8, func(i int) error {
		switch i {
		case 2:
			<-late
		case 5:
		case 7:
			defer close(late)
		default:
			return nil
		}
		return fmt.Errorf("fail %d", i)
	})
	if err == nil || err.Error() != "fail 2" {
		t.Fatalf("err = %v, want fail 2", err)
	}
}

func TestDoPanicBecomesPanicError(t *testing.T) {
	for _, n := range []int{1, 4} {
		err := Do(n, func(i int) error {
			if i == n-1 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("n=%d: err = %v, want *PanicError", n, err)
		}
		if pe.Value != "boom" || len(pe.Stack) == 0 || err.Error() != "panic: boom" {
			t.Fatalf("n=%d: PanicError = {%v, %d-byte stack} %q", n, pe.Value, len(pe.Stack), err)
		}
		if !bytes.Contains(pe.Stack, []byte("par_test.go")) {
			t.Fatalf("n=%d: stack does not show the panicking function:\n%s", n, pe.Stack)
		}
	}
}

func TestDoPanicErrorBeatsHigherIndexError(t *testing.T) {
	err := Do(3, func(i int) error {
		if i == 1 {
			panic(errors.New("bad"))
		}
		if i == 2 {
			return errors.New("later")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want the index-1 panic", err)
	}
}

func TestReraisedPanicErrorKeepsItsStack(t *testing.T) {
	inner := Do(1, func(int) error { panic("deep") })
	var want *PanicError
	if !errors.As(inner, &want) {
		t.Fatalf("inner = %v", inner)
	}
	err := Do(2, func(i int) error {
		if i == 1 {
			panic(inner)
		}
		return nil
	})
	var got *PanicError
	if !errors.As(err, &got) || got != want {
		t.Fatalf("re-raised PanicError was wrapped again: %v", err)
	}
}

func TestDoZeroAndNegativeRunNothing(t *testing.T) {
	for _, n := range []int{0, -3} {
		if err := Do(n, func(int) error { t.Error("fn ran"); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := Ranges(n, 4, func(int, int, int) error { t.Error("fn ran"); return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// goid returns the current goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestDoSingleRunsOnCallersGoroutine(t *testing.T) {
	caller := goid()
	var ran string
	if err := Do(1, func(int) error { ran = goid(); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != caller {
		t.Fatalf("Do(1) ran on goroutine %s, caller is %s", ran, caller)
	}
	if err := Ranges(100, 1, func(int, int, int) error { ran = goid(); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != caller {
		t.Fatalf("Ranges with one chunk ran on goroutine %s, caller is %s", ran, caller)
	}
}

// oldChunks is the layout every hand-written fan-out loop used: workers
// clamped to [1, n], chunk = ceil(n/workers), empty chunks skipped.
func oldChunks(n, workers int) [][3]int {
	workers = min(max(workers, 1), n)
	chunk := (n + workers - 1) / workers
	var out [][3]int
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			continue
		}
		out = append(out, [3]int{w, lo, hi})
	}
	return out
}

func TestRangesLayoutMatchesTheLoopsItReplaced(t *testing.T) {
	for _, n := range []int{1, 9, 10, 4096} {
		for _, workers := range []int{1, 3, 4, 8} {
			var mu sync.Mutex
			got := map[int][3]int{}
			if err := Ranges(n, workers, func(w, lo, hi int) error {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[w]; dup {
					t.Errorf("n=%d workers=%d: chunk %d ran twice", n, workers, w)
				}
				got[w] = [3]int{w, lo, hi}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := oldChunks(n, workers)
			if len(got) != len(want) {
				t.Fatalf("n=%d workers=%d: %d chunks, want %d", n, workers, len(got), len(want))
			}
			for _, c := range want {
				if got[c[0]] != c {
					t.Fatalf("n=%d workers=%d: chunk %d = %v, want %v", n, workers, c[0], got[c[0]], c)
				}
			}
		}
	}
}

func TestRangesClampsWorkers(t *testing.T) {
	for _, tc := range []struct{ n, workers, chunks int }{
		{3, 8, 3},  // workers > n: one row per chunk
		{5, 0, 1},  // workers < 1: one chunk
		{5, -2, 1}, // likewise
	} {
		var mu sync.Mutex
		var seen []int
		if err := Ranges(tc.n, tc.workers, func(w, lo, hi int) error {
			if lo >= hi {
				t.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			mu.Lock()
			defer mu.Unlock()
			seen = append(seen, w)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != tc.chunks || slices.Max(seen) >= max(1, tc.workers) {
			t.Fatalf("n=%d workers=%d: chunk indices %v, want %d below max(1, workers)", tc.n, tc.workers, seen, tc.chunks)
		}
	}
}

func TestRangesErrorAndPanic(t *testing.T) {
	err := Ranges(100, 4, func(w, lo, hi int) error {
		if w >= 2 {
			return fmt.Errorf("chunk %d", w)
		}
		return nil
	})
	if err == nil || err.Error() != "chunk 2" {
		t.Fatalf("err = %v, want chunk 2", err)
	}
	err = Ranges(100, 4, func(w, lo, hi int) error {
		var s []int
		_ = s[w] // index out of range
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestNoGoroutineLeftBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	for range 20 {
		_ = Do(16, func(i int) error {
			if i%3 == 0 {
				panic(i)
			}
			return nil
		})
		_ = Ranges(1000, 8, func(int, int, int) error { return errors.New("x") })
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
