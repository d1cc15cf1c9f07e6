package sketchcore

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForkJoin runs fn(i) for every i in [0, n) on min(Workers(workers), n)
// goroutines, the caller's among them, and returns when all have finished.
// It is the one same-process fan-out of the repository: every parallel
// ingest, pass and publish step gives each index sole ownership of what it
// writes (a level, a weight class, a bank, a slot range), so the result is
// bit-identical to the sequential loop for every worker count. Goroutines
// claim indices off an atomic counter, so uneven units balance themselves;
// with one worker or one unit it is a plain loop on the caller.
func ForkJoin(n, workers int, fn func(i int)) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// Workers resolves a worker setting: workers itself when positive, else
// GOMAXPROCS. ForkJoin resolves its count with it, and so do the fan-outs
// that size per-worker state (slot ranges, decode scratch) before forking.
func Workers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}
