// Package par is the repository's one fan-out idiom: run n independent,
// indexed pieces of work on the available cores and return when all of
// them are done.
//
// Callers keep results deterministic by writing piece i's output to slot i
// of a slice they own and reading the slots in index order afterwards; the
// schedule decides only when a piece runs, never where its result lands.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) and returns when every call
// has returned. The calls run on min(GOMAXPROCS, n) workers, the calling
// goroutine being one of them, which take indices from a shared counter in
// increasing order. With a single worker the calls run inline, in index
// order, and no goroutine is started.
//
// A panic in any call stops the workers from taking further indices. For
// waits until every worker has returned, then re-panics on the calling
// goroutine with the first panic value recovered, so a recover in the
// caller (such as a server's per-request containment) sees it as if fn
// had panicked there.
func For(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first any // non-nil once a call panicked: recover never returns nil for a panic
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				next.Store(int64(n)) // no worker takes another index
				once.Do(func() { first = r })
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
