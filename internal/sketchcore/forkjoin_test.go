package sketchcore

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphsketch/internal/stream"
)

// scalarEdges replays ups into a with one UpdateEdge per update, applying
// the node-incidence convention: the per-update reference the owned
// fan-outs must reproduce.
func scalarEdges(a *Arena, ups []stream.Update) {
	n := a.Slots()
	for _, up := range ups {
		u, v := up.U, up.V
		if u == v || up.Delta == 0 {
			continue
		}
		if u > v {
			u, v = v, u
		}
		a.UpdateEdge(u, v, stream.EdgeIndex(u, v, n), up.Delta)
	}
}

// ownedBanks replays ups into banks the way the parallel ingests do: each
// chunk staged once, then one ForkJoin owner per bank applying it.
func ownedBanks(banks []*Arena, ups []stream.Update, workers int) {
	var plan *EdgePlan
	ReplayPlanned(ups, banks[0].Slots(), &plan, func(p *EdgePlan) {
		ForkJoin(len(banks), workers, func(i int) { banks[i].ApplyPlan(p) })
	})
}

// TestForkJoinOwnersBitIdentical: banks written by one ForkJoin owner each
// must be bit-identical to a sequential per-update replay, for any worker
// count.
func TestForkJoinOwnersBitIdentical(t *testing.T) {
	const n, nbanks = 64, 5
	st := stream.GNP(n, 0.3, 5).WithChurn(3000, 6)
	mk := func(i int) *Arena {
		return New(Config{Slots: n, Universe: uint64(n) * uint64(n), Reps: 4, Seed: 77 + uint64(i)})
	}
	seq := make([]*Arena, nbanks)
	for i := range seq {
		seq[i] = mk(i)
		scalarEdges(seq[i], st.Updates)
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		par := make([]*Arena, nbanks)
		for i := range par {
			par[i] = mk(i)
		}
		ownedBanks(par, st.Updates, workers)
		for i := range par {
			if !par[i].Equal(seq[i]) {
				t.Fatalf("workers=%d: bank %d differs from sequential", workers, i)
			}
		}
	}
}

// TestForkJoinOwnersShortStreams: streams shorter than (or barely longer
// than) the worker count, and fewer banks than workers, must not panic and
// must still land the sequential bits.
func TestForkJoinOwnersShortStreams(t *testing.T) {
	const nbanks = 3
	mk := func(i int) *Arena { return New(Config{Slots: 8, Universe: 64, Reps: 3, Seed: 2 + uint64(i)}) }
	for _, m := range []int{0, 1, 2, 3, 5, 10} {
		ups := make([]stream.Update, m)
		for i := range ups {
			ups[i] = stream.Update{U: i % 7, V: (i % 7) + 1, Delta: 1}
		}
		seq := make([]*Arena, nbanks)
		for i := range seq {
			seq[i] = mk(i)
			scalarEdges(seq[i], ups)
		}
		for _, workers := range []int{1, 2, 4, 7, 16} {
			par := make([]*Arena, nbanks)
			for i := range par {
				par[i] = mk(i)
			}
			ownedBanks(par, ups, workers)
			for i := range par {
				if !par[i].Equal(seq[i]) {
					t.Fatalf("m=%d workers=%d: bank %d differs from sequential", m, workers, i)
				}
			}
		}
	}
}

// TestForkJoinOwnersBatchPath: owners that replay their bank through the
// batch kernel (UpdateEdges, each bank staging its own plan) and owners
// that replay it update by update must each run exactly once and land the
// same bits.
func TestForkJoinOwnersBatchPath(t *testing.T) {
	const n, nbanks = 24, 4
	mk := func() []*Arena {
		banks := make([]*Arena, nbanks)
		for i := range banks {
			banks[i] = New(Config{Slots: n, Universe: n * n, Reps: 3, Seed: 77 + uint64(i)})
		}
		return banks
	}
	st := stream.GNP(n, 0.4, 3).WithChurn(200, 4)
	for _, workers := range []int{1, 2, 3} {
		batch, scalar := mk(), mk()
		calls := make([]atomic.Int32, nbanks)
		ForkJoin(nbanks, workers, func(i int) {
			calls[i].Add(1)
			batch[i].UpdateEdges(st.Updates)
		})
		ForkJoin(nbanks, workers, func(i int) { scalarEdges(scalar[i], st.Updates) })
		for i := range batch {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("workers=%d: bank %d's batch owner ran %d times", workers, i, got)
			}
			if !batch[i].Equal(scalar[i]) {
				t.Fatalf("workers=%d: bank %d's batch replay diverged from the scalar replay", workers, i)
			}
		}
	}
}

// TestForkJoinApplyPlanBitIdentical: one ForkJoin owner per bank applying a
// shared plan must leave every bank exactly as the sequential bank loop
// does, for worker counts below, at, and above the bank count.
func TestForkJoinApplyPlanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const slots, nbanks = 80, 7
	ups := randomChurnUpdates(rng, slots, 4000)
	mkBanks := func() []*Arena {
		banks := make([]*Arena, nbanks)
		for i := range banks {
			banks[i] = newPlanTestArena(slots, uint64(100+i))
		}
		return banks
	}
	ref := mkBanks()
	var refPlan *EdgePlan
	ReplayPlanned(ups, slots, &refPlan, func(p *EdgePlan) {
		for _, b := range ref {
			b.ApplyPlan(p)
		}
	})
	for _, workers := range []int{1, 2, nbanks, 16} {
		got := mkBanks()
		ownedBanks(got, ups, workers)
		for i := range got {
			if !got[i].Equal(ref[i]) {
				t.Fatalf("workers=%d: bank %d diverged from sequential apply", workers, i)
			}
		}
	}
}

// TestForkJoinEachIndexOnce: every index in [0, n) runs exactly once, for
// unit counts below, at and above the processor and worker counts, and
// ForkJoin returns only after all of them.
func TestForkJoinEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 17, 1000} {
			for _, workers := range []int{0, 1, 3, 8} {
				runs := make([]atomic.Int32, n)
				ForkJoin(n, workers, func(i int) { runs[i].Add(1) })
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("GOMAXPROCS=%d n=%d workers=%d: index %d ran %d times", procs, n, workers, i, got)
					}
				}
			}
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 7 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestForkJoinDefaultWorkers: workers = 0 under GOMAXPROCS 4 runs at least
// two indices at once on at most four goroutines, the caller's among them;
// workers = 1 runs every index on the caller. The first two indices in
// flight wait for each other, bounded by a deadline, so a ForkJoin that
// never overlaps fails in seconds instead of hanging.
func TestForkJoinDefaultWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	caller := goid()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var inFlight, peak atomic.Int32
	pair := make(chan struct{})
	var pairOnce sync.Once
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	ForkJoin(16, 0, func(i int) {
		mu.Lock()
		seen[goid()] = true
		mu.Unlock()
		now := inFlight.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		if now >= 2 {
			pairOnce.Do(func() { close(pair) })
		}
		select {
		case <-pair:
		case <-deadline.C:
			pairOnce.Do(func() { close(pair) })
		}
		inFlight.Add(-1)
	})
	if p := peak.Load(); p < 2 {
		t.Fatalf("workers=0 under GOMAXPROCS=4 never had two indices in flight (peak %d)", p)
	}
	if len(seen) > 4 || !seen[caller] {
		t.Fatalf("workers=0 under GOMAXPROCS=4 ran on %d goroutines (caller among them: %v), want <= 4 with the caller", len(seen), seen[caller])
	}
	ForkJoin(16, 1, func(i int) {
		if g := goid(); g != caller {
			t.Errorf("workers=1: index %d ran on goroutine %d, not the caller's %d", i, g, caller)
		}
		time.Sleep(time.Millisecond) // room for any other goroutine to claim an index
	})
}
