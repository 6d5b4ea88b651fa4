// Package par is the one way a statement fans out: shard members, row ranges
// and partitions run concurrently, their results are joined in index order,
// and a piece that panics fails the statement with an error instead of
// taking the process down.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is the error of a function that panicked under Do or Ranges.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the stack of the goroutine that panicked
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Do runs fn(0), …, fn(n-1) concurrently and waits for all of them. It
// returns the error of the lowest i that failed, or nil; a panicking fn fails
// with a *PanicError. fn(0) runs on the caller's goroutine, so n == 1 starts
// no goroutine at all.
func Do(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return call(func() error { return fn(0) })
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i] = call(func() error { return fn(i) })
		}()
	}
	errs[0] = call(func() error { return fn(0) })
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ranges splits [0, n) into contiguous chunks of ceil(n/workers) and runs
// fn(w, lo, hi) on every non-empty chunk through Do; w is the chunk's index.
// workers is clamped to [1, n], so w < max(1, workers).
func Ranges(n, workers int, fn func(w, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	chunk := (n + workers - 1) / workers
	return Do((n+chunk-1)/chunk, func(w int) error {
		lo := w * chunk
		return fn(w, lo, min(lo+chunk, n))
	})
}

// call runs f, turning a panic into a *PanicError. A re-raised *PanicError
// passes through unchanged, so its stack stays the one where the panic began.
func call(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			pe, ok := v.(*PanicError)
			if !ok {
				pe = &PanicError{Value: v, Stack: debug.Stack()}
			}
			err = pe
		}
	}()
	return f()
}
