package sketchcore

import (
	"math/rand"
	"testing"

	"graphsketch/internal/stream"
)

// randomChurnUpdates builds a batch with heavy edge duplication, exact
// cancellations, self-loops, zero deltas, and un-canonical endpoint order —
// everything the coalescer and the staging canonicalization must absorb.
func randomChurnUpdates(rng *rand.Rand, n, count int) []stream.Update {
	ups := make([]stream.Update, 0, count+count/4)
	for len(ups) < count {
		u, v := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(10) {
		case 0:
			ups = append(ups, stream.Update{U: u, V: u, Delta: 1}) // self-loop
		case 1:
			ups = append(ups, stream.Update{U: u, V: v, Delta: 0}) // no-op
		case 2, 3, 4:
			// Insert/delete churn pair: cancels exactly, in either
			// endpoint order.
			ups = append(ups,
				stream.Update{U: u, V: v, Delta: 3},
				stream.Update{U: v, V: u, Delta: -3})
		default:
			ups = append(ups, stream.Update{U: u, V: v, Delta: int64(rng.Intn(5) - 2)})
		}
	}
	return ups
}

func newPlanTestArena(slots int, seed uint64) *Arena {
	return New(Config{
		Slots:    slots,
		Universe: uint64(slots) * uint64(slots),
		Reps:     3,
		Seed:     seed,
	})
}

// TestApplyPlanTiledMatchesEdgeMajor: the cache-blocked, entry-major sweep
// must leave the arena bit-identical to the retained edge-major replay at
// every tile width — per-slot tiles, mid-size tiles, one-tile staging, and
// the width Build itself would pick.
func TestApplyPlanTiledMatchesEdgeMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const slots = 150
	ups := randomChurnUpdates(rng, slots, 3000)
	shifts := []uint{0, 1, 2, 6, defaultTileShift(slots), 30}
	ref := newPlanTestArena(slots, 77)
	var refPlan EdgePlan
	for rest := ups; len(rest) > 0; {
		rest = rest[refPlan.Build(rest, slots):]
		if refPlan.Edges() > 0 {
			ref.applyPlanEdgeMajor(&refPlan)
		}
	}
	for _, shift := range shifts {
		got := newPlanTestArena(slots, 77)
		var p EdgePlan
		for rest := ups; len(rest) > 0; {
			rest = rest[p.BuildTiled(rest, slots, shift):]
			if p.Edges() > 0 {
				got.ApplyPlan(&p)
			}
		}
		if !got.Equal(ref) {
			t.Fatalf("tile shift %d: blocked ApplyPlan diverged from edge-major replay", shift)
		}
	}
}

// TestCoalescePaths: the dense-array and map coalescers must agree exactly
// (same first-touch emit order), preserve per-edge delta sums, drop
// cancelled edges, and emit each surviving edge once.
func TestCoalescePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const slots = 60 // universe 3600: dense path eligible
	ups := randomChurnUpdates(rng, slots, 5000)

	var pd, pm EdgePlan
	dense := append([]stream.Update(nil), pd.coalesceDense(ups, slots)...)
	viaMap := append([]stream.Update(nil), pm.coalesceMap(ups, slots)...)

	if len(dense) != len(viaMap) {
		t.Fatalf("dense and map coalescers disagree on length: %d vs %d", len(dense), len(viaMap))
	}
	for i := range dense {
		if dense[i] != viaMap[i] {
			t.Fatalf("coalescer outputs diverge at %d: %+v vs %+v", i, dense[i], viaMap[i])
		}
	}

	want := map[uint64]int64{}
	for _, up := range ups {
		if up.U == up.V || up.Delta == 0 {
			continue
		}
		want[stream.EdgeIndex(up.U, up.V, slots)] += up.Delta
	}
	seen := map[uint64]bool{}
	for _, up := range dense {
		if up.U >= up.V {
			t.Fatalf("coalesced update not canonical: %+v", up)
		}
		idx := stream.EdgeIndex(up.U, up.V, slots)
		if seen[idx] {
			t.Fatalf("edge %d emitted twice", idx)
		}
		seen[idx] = true
		if up.Delta == 0 || up.Delta != want[idx] {
			t.Fatalf("edge %d: coalesced delta %d, want %d", idx, up.Delta, want[idx])
		}
	}
	for idx, d := range want {
		if d != 0 && !seen[idx] {
			t.Fatalf("surviving edge %d missing from coalesced output", idx)
		}
	}

	// Scratch reuse must not leak state into a second batch.
	ups2 := randomChurnUpdates(rng, slots, 4000)
	dense2 := pd.coalesceDense(ups2, slots)
	viaMap2 := pm.coalesceMap(ups2, slots)
	if len(dense2) != len(viaMap2) {
		t.Fatalf("second batch: dense and map disagree: %d vs %d", len(dense2), len(viaMap2))
	}
	for i := range dense2 {
		if dense2[i] != viaMap2[i] {
			t.Fatalf("second batch diverges at %d", i)
		}
	}
}

// TestReplayPlannedCoalescedBitIdentical: a coalescing replay (batch above
// coalesceMinBatch) must leave the arena bit-identical to a chunked replay
// of the raw stream, on both the dense-universe and map-universe paths.
func TestReplayPlannedCoalescedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, slots := range []int{60, 600} { // 3600 dense; 360000 > coalesceMaxDense: map
		ups := randomChurnUpdates(rng, slots, coalesceMinBatch+500)
		ref := newPlanTestArena(slots, 31)
		var refPlan EdgePlan
		for rest := ups; len(rest) > 0; {
			rest = rest[refPlan.Build(rest, slots):]
			if refPlan.Edges() > 0 {
				ref.ApplyPlan(&refPlan)
			}
		}
		got := newPlanTestArena(slots, 31)
		var plan *EdgePlan
		ReplayPlanned(ups, slots, &plan, got.ApplyPlan)
		if !got.Equal(ref) {
			t.Fatalf("slots=%d: coalesced replay diverged from raw chunked replay", slots)
		}
	}
}
