package sketchcore

import (
	"math/bits"
	"runtime"
	"sync"
)

// mergeManyParallelCells is the amount of occupied cell-add work (occupied
// slot rows times sources) below which MergeMany stays sequential: small
// folds finish before goroutine handoff pays for itself.
const mergeManyParallelCells = 1 << 18

// MergeMany folds k source arenas into a in one pass — the coordinator
// aggregation step of the simultaneous-communication deployment (Sec. 1.1),
// where pairwise Add loses twice:
//
//   - it streams the destination cells once per source, so the destination
//     array crosses the cache k-1 times;
//   - its zero-skipping is word-granular (64 slots), which on scattered
//     sparse occupancy degenerates to a full pass.
//
// MergeMany ORs the sources' occupancy bitmaps and visits each occupied
// slot exactly once, folding every source that actually holds state for it
// while the destination row is hot — work proportional to the non-zero
// state, independent of arena capacity. Slot spans are sharded across
// worker goroutines when the fold is large enough to amortize them; the
// result is bit-identical for any worker count (disjoint destination
// ranges, and every cell aggregate is a commutative exact sum, so source
// order per cell matches sequential pairwise merging).
func (a *Arena) MergeMany(others []*Arena) {
	for _, o := range others {
		a.mustMatch(o)
	}
	if len(others) == 0 {
		return
	}
	a.own() // before the word ranges fan out
	for _, o := range others {
		a.dig = a.dig.Add(o.dig)
	}
	// OR the occupancy up front: per word, the merged bitmap and an exact
	// estimate of the fold's work.
	occupied := 0
	orOcc := make([]uint64, len(a.occ))
	for wi := range a.occ {
		var w uint64
		for _, o := range others {
			w |= o.occ[wi]
		}
		orOcc[wi] = w
		a.occ[wi] |= w
		occupied += bits.OnesCount64(w)
	}
	rowCells := a.reps * a.levels
	workers := runtime.GOMAXPROCS(0)
	if occupied*rowCells*len(others) < mergeManyParallelCells || workers < 2 {
		a.mergeManyWords(others, orOcc, 0, len(orOcc), rowCells)
		return
	}
	if workers > len(orOcc) {
		workers = len(orOcc)
	}
	chunk := (len(orOcc) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(orOcc); lo += chunk {
		hi := lo + chunk
		if hi > len(orOcc) {
			hi = len(orOcc)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			a.mergeManyWords(others, orOcc, lo, hi, rowCells)
		}(lo, hi)
	}
	wg.Wait()
}

// mergeManyWords folds the occupancy-word range [loWord, hiWord) of every
// source into a.
func (a *Arena) mergeManyWords(others []*Arena, orOcc []uint64, loWord, hiWord, rowCells int) {
	for wi := loWord; wi < hiWord; wi++ {
		w := orOcc[wi]
		for w != 0 {
			bit := uint(bits.TrailingZeros64(w))
			w &= w - 1
			slot := wi<<6 + int(bit)
			base := slot * rowCells
			dst := a.cells[base : base+rowCells]
			mask := uint64(1) << bit
			for _, o := range others {
				if o.occ[wi]&mask != 0 {
					addInto(dst, o.cells[base:base+rowCells])
				}
			}
		}
	}
}
