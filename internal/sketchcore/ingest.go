package sketchcore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"graphsketch/internal/stream"
)

// Updater is the sketch interface ShardedIngest replays a stream into:
// every sketch in this repository applies one signed edge-multiplicity
// update at a time.
type Updater interface {
	Update(u, v int, delta int64)
}

// BatchUpdater is the batched replay fast path: sketches that implement it
// consume a whole update slice per call (hoisting per-update dispatch,
// canonicalization, and fingerprint-term work into their batch kernels).
// UpdateBatch must leave the sketch in exactly the state a per-update
// replay of the same slice would — every sketch here is linear with
// commutative cell merges, so batch kernels get that for free.
type BatchUpdater interface {
	UpdateBatch(ups []stream.Update)
}

// replayInto feeds part into sk, preferring the batched kernel when the
// sketch has one.
func replayInto[S Updater](sk S, part []stream.Update) {
	if bu, ok := any(sk).(BatchUpdater); ok {
		bu.UpdateBatch(part)
		return
	}
	for _, up := range part {
		sk.Update(up.U, up.V, up.Delta)
	}
}

// ShardedIngest is the parallel ingest kernel shared by every sketch type:
// it splits a stream into `workers` contiguous shards, replays each shard
// into its own sketch on its own goroutine (the calling goroutine takes the
// first shard directly into self; every other worker goroutine spawns its
// shard sketch itself, so arena allocation overlaps with ingest instead of
// serializing on the caller), and merges the shard sketches back in shard
// order. spawn must therefore be safe to call from multiple goroutines
// concurrently — every spawn closure in this repository is a pure
// constructor.
//
// Because every sketch in this repository is linear with commutative,
// associative cell merges (int64 sums and GF(2^61-1) sums), the merged
// result is bit-identical to a sequential replay of the whole stream —
// the distributed-streams property of Sec. 1.1 turned into a same-process
// speedup. Property tests assert the bit-identity per sketch type.
//
// workers <= 0 defaults to runtime.GOMAXPROCS(0), so facades that leave
// their worker count unset scale with the machine instead of silently
// running sequential. The effective worker count is returned; the facade
// tests pair it with ShardSpawns to prove the default engages.
func ShardedIngest[S Updater](ups []stream.Update, workers int, self S,
	spawn func() S, merge func(S)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ups) {
		workers = len(ups)
	}
	if workers <= 1 {
		replayInto(self, ups)
		return 1
	}
	chunk := (len(ups) + workers - 1) / workers
	shards := make([]S, workers-1)
	var wg sync.WaitGroup
	for i := range shards {
		// Clamp both bounds: with ceil-division the tail shards of a short
		// stream can start past the end (their share is empty).
		lo := (i + 1) * chunk
		if lo > len(ups) {
			lo = len(ups)
		}
		hi := lo + chunk
		if hi > len(ups) {
			hi = len(ups)
		}
		wg.Add(1)
		shardSpawns.Add(1)
		go func(i int, part []stream.Update) {
			defer wg.Done()
			sh := spawn()
			shards[i] = sh
			replayInto(sh, part)
		}(i, ups[lo:hi])
	}
	replayInto(self, ups[:chunk])
	wg.Wait()
	for _, sh := range shards {
		merge(sh)
	}
	return workers
}

// ApplyPlanBanks replays one staged plan into every bank, claiming banks off
// an atomic counter across worker goroutines. This is the same-process
// parallel-ingest kernel for multi-bank sketches (a ForestSketch holds one
// arena per Boruvka round, a k-EDGECONNECT stack holds k of those): the plan
// is read-only during ApplyPlan and each arena keeps its phase-1 scratch
// internally, so concurrent applies of one plan to distinct arenas share
// nothing and the result is bit-identical to the sequential bank loop.
//
// Compared to stream sharding (ShardedIngest), the parallel axis here is the
// bank, not the shard: no per-worker sketch allocation, no merge-back pass,
// and each worker's working set is one bank's arena rather than a whole
// duplicate sketch — so the kernel scales on cache-limited machines where
// shard-per-worker replay thrashes. Dynamic claiming balances the banks even
// when workers does not divide the bank count.
func ApplyPlanBanks(banks []*Arena, p *EdgePlan, workers int) {
	forkJoin(len(banks), workers, func(i int) { banks[i].ApplyPlan(p) })
}

// ForkJoin runs fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines, the caller's among them, and returns when all have finished.
// Goroutines claim indices off an atomic counter, so uneven units balance
// themselves; with one processor or one unit it is a plain loop. fn must be
// safe to run concurrently for distinct i: the passes that use it give each
// index sole ownership of what it writes (a level, a bank, an arena), which
// makes their result bit-identical to the sequential loop by construction.
func ForkJoin(n int, fn func(i int)) {
	forkJoin(n, runtime.GOMAXPROCS(0), fn)
}

// forkJoin is ForkJoin on an explicit worker count.
func forkJoin(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
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

// shardSpawns counts shard goroutines launched by ShardedIngest over the
// process lifetime (one per worker beyond the caller's own shard).
var shardSpawns atomic.Int64

// ShardSpawns returns the cumulative number of shard goroutines ShardedIngest
// has launched — observability for the facade tests that must prove a
// defaulted worker count actually went parallel (the facades themselves
// return nothing).
func ShardSpawns() int64 { return shardSpawns.Load() }
