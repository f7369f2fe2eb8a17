package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// withProcs runs fn at the given GOMAXPROCS and restores the previous
// setting.
func withProcs(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	leakcheck.Check(t)
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			counts := make([]atomic.Int32, n)
			withProcs(procs, func() {
				For(n, func(i int) { counts[i].Add(1) })
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d ran %d times, want 1", procs, n, i, got)
				}
			}
		}
	}
}

// TestForInlineAtOneProc: with one worker the calls run on the caller's
// goroutine, in index order, and no goroutine is started.
func TestForInlineAtOneProc(t *testing.T) {
	leakcheck.Check(t)
	withProcs(1, func() {
		before := runtime.NumGoroutine()
		var order []int
		For(5, func(i int) {
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("index %d: %d goroutines, want %d (no worker started)", i, g, before)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("inline order %v, want 0..4", order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("ran %d calls, want 5", len(order))
		}
	})
	// A single piece of work needs no second worker at any GOMAXPROCS.
	withProcs(8, func() {
		before := runtime.NumGoroutine()
		For(1, func(int) {
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("n=1: %d goroutines, want %d", g, before)
			}
		})
	})
}

// TestForPanicWaitsForWorkers: a panicking call is re-raised on the
// caller's goroutine with its own value, and only after every other
// worker has returned.
func TestForPanicWaitsForWorkers(t *testing.T) {
	leakcheck.Check(t)
	const n = 4
	var (
		started  atomic.Int32
		returned atomic.Int32
		allIn    = make(chan struct{})
		release  = make(chan struct{})
		raised   = make(chan any, 1)
		atRaise  = make(chan int32, 1)
	)
	withProcs(n, func() {
		go func() {
			defer func() {
				atRaise <- returned.Load()
				raised <- recover()
			}()
			For(n, func(i int) {
				if started.Add(1) == n {
					close(allIn)
				}
				<-allIn
				if i == 0 {
					panic("boom")
				}
				<-release
				returned.Add(1)
			})
		}()
		<-allIn
		// The panic has fired (or is about to) while three workers are
		// still blocked: For must not return until they do.
		select {
		case v := <-raised:
			t.Fatalf("For re-raised %v while workers were still running", v)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if got := <-atRaise; got != n-1 {
			t.Errorf("%d workers had returned when the panic was re-raised, want %d", got, n-1)
		}
		if v := <-raised; v != "boom" {
			t.Errorf("re-raised %v, want the worker's own panic value", v)
		}
	})
}
