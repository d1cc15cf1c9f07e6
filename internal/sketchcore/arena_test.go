package sketchcore

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"graphsketch/internal/hashing"
	"graphsketch/internal/l0"
	"graphsketch/internal/wire"
)

// TestArenaMatchesL0Sampler: a shared-mode arena slot must behave
// bit-identically to an l0.Sampler built from the same (universe, seed,
// reps) — same hash derivations, same cells, same samples.
func TestArenaMatchesL0Sampler(t *testing.T) {
	const universe, seed, reps, slots = 1 << 12, 42, 4, 8
	a := New(Config{Slots: slots, Universe: universe, Reps: reps, Seed: seed})
	ref := make([]*l0.Sampler, slots)
	for i := range ref {
		ref[i] = l0.NewWithReps(universe, seed, reps)
	}
	r := hashing.NewRNG(7)
	for i := 0; i < 5000; i++ {
		slot := r.Intn(slots)
		idx := uint64(r.Intn(universe))
		delta := int64(r.Intn(5) - 2)
		a.Update(slot, idx, delta)
		ref[slot].Update(idx, delta)
	}
	for slot := 0; slot < slots; slot++ {
		ai, aw, aok := a.Sample(slot)
		ri, rw, rok := ref[slot].Sample()
		if ai != ri || aw != rw || aok != rok {
			t.Fatalf("slot %d: arena sample (%d,%d,%v) != l0 sample (%d,%d,%v)",
				slot, ai, aw, aok, ri, rw, rok)
		}
		if a.IsZero(slot) != ref[slot].IsZero() {
			t.Fatalf("slot %d: IsZero disagrees", slot)
		}
		if a.TotalWeight(slot) != ref[slot].TotalWeight() {
			t.Fatalf("slot %d: TotalWeight disagrees", slot)
		}
	}
}

// TestArenaPerSlotMatchesL0Sampler: per-slot mode must reproduce
// independently seeded l0.Samplers.
func TestArenaPerSlotMatchesL0Sampler(t *testing.T) {
	const universe, reps, slots = 1 << 10, 3, 6
	seeds := make([]uint64, slots)
	ref := make([]*l0.Sampler, slots)
	for i := range seeds {
		seeds[i] = hashing.DeriveSeed(99, uint64(i))
		ref[i] = l0.NewWithReps(universe, seeds[i], reps)
	}
	a := New(Config{Slots: slots, Universe: universe, Reps: reps, SlotSeeds: seeds})
	r := hashing.NewRNG(3)
	for i := 0; i < 3000; i++ {
		slot := r.Intn(slots)
		idx := uint64(r.Intn(universe))
		a.Update(slot, idx, 1)
		ref[slot].Update(idx, 1)
	}
	for slot := 0; slot < slots; slot++ {
		ai, aw, aok := a.Sample(slot)
		ri, rw, rok := ref[slot].Sample()
		if ai != ri || aw != rw || aok != rok {
			t.Fatalf("slot %d: per-slot arena sample disagrees with l0", slot)
		}
	}
}

// TestUpdateEdgeMatchesTwoUpdates: the fused incidence update must equal
// the two single-slot updates it replaces.
func TestUpdateEdgeMatchesTwoUpdates(t *testing.T) {
	cfg := Config{Slots: 10, Universe: 100, Reps: 4, Seed: 5}
	fused := New(cfg)
	plain := New(cfg)
	r := hashing.NewRNG(11)
	for i := 0; i < 2000; i++ {
		u, v := r.Intn(10), r.Intn(10)
		if u == v {
			continue
		}
		idx := uint64(r.Intn(100))
		delta := int64(r.Intn(7) - 3)
		fused.UpdateEdge(u, v, idx, delta)
		plain.Update(u, idx, delta)
		plain.Update(v, idx, -delta)
	}
	if !fused.Equal(plain) {
		t.Fatal("UpdateEdge state differs from two Updates")
	}
}

// TestUpdateAllMatchesLoop: the broadcast update must equal a loop of
// single-slot updates, in both seeding modes.
func TestUpdateAllMatchesLoop(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	for _, cfg := range []Config{
		{Slots: 4, Universe: 64, Reps: 3, Seed: 9},
		{Slots: 4, Universe: 64, Reps: 3, SlotSeeds: seeds},
	} {
		bulk := New(cfg)
		loop := New(cfg)
		r := hashing.NewRNG(17)
		for i := 0; i < 500; i++ {
			idx := uint64(r.Intn(64))
			delta := int64(r.Intn(3) - 1)
			bulk.UpdateAll(idx, delta)
			for s := 0; s < 4; s++ {
				loop.Update(s, idx, delta)
			}
		}
		if !bulk.Equal(loop) {
			t.Fatalf("UpdateAll differs from per-slot loop (shared=%v)", cfg.SlotSeeds == nil)
		}
	}
}

// TestCloneIndependence: mutating a clone never perturbs the original (and
// vice versa).
func TestCloneIndependence(t *testing.T) {
	a := New(Config{Slots: 4, Universe: 256, Reps: 4, Seed: 21})
	a.Update(1, 17, 3)
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone must start bit-identical")
	}
	c.Update(1, 99, 1)
	c.Update(2, 5, -2)
	if c.Equal(a) {
		t.Fatal("mutated clone still equals original")
	}
	// The original must be untouched: rebuild the expected state.
	want := New(Config{Slots: 4, Universe: 256, Reps: 4, Seed: 21})
	want.Update(1, 17, 3)
	if !a.Equal(want) {
		t.Fatal("mutating the clone perturbed the original")
	}
	// And mutating the original must not leak into the clone.
	a.Update(3, 40, 1)
	wantC := want.Clone()
	wantC.Update(1, 99, 1)
	wantC.Update(2, 5, -2)
	if !c.Equal(wantC) {
		t.Fatal("mutating the original perturbed the clone")
	}
}

// TestEqualSeesOccupancy: an update and its negation leave the cells zero
// but the slot marked occupied, so the arena is not Equal to a fresh one,
// although every cell matches.
func TestEqualSeesOccupancy(t *testing.T) {
	cfg := Config{Slots: 4, Universe: 256, Reps: 4, Seed: 21}
	a, fresh := New(cfg), New(cfg)
	a.Update(1, 17, 3)
	a.Update(1, 17, -3)
	if !slices.Equal(a.cells, fresh.cells) || a.OccupiedSlots() == fresh.OccupiedSlots() {
		t.Fatal("fixture: want equal cells and different occupancy")
	}
	if a.Equal(fresh) || fresh.Equal(a) {
		t.Fatal("arenas differing only in occupancy compare Equal")
	}
}

// TestArenaCloneUnoccupied: the clone of an arena with no occupied slot
// (never written, or Reset) skips the cell copy; it must still equal its
// source, digest included, and a write to either one must leave the other
// as it was.
func TestArenaCloneUnoccupied(t *testing.T) {
	shared := Config{Slots: 70, Universe: 256, Reps: 4, Seed: 21}
	perSlot := Config{Slots: 3, Universe: 256, Reps: 2, SlotSeeds: []uint64{5, 6, 7}}
	for _, tc := range []struct {
		name string
		cfg  Config
		prep func(*Arena)
	}{
		{"shared/new", shared, func(*Arena) {}},
		{"shared/reset", shared, func(a *Arena) { a.UpdateEdge(1, 66, 17, 3); a.Reset() }},
		{"per-slot/new", perSlot, func(*Arena) {}},
	} {
		a := New(tc.cfg)
		tc.prep(a)
		if a.OccupiedSlots() != 0 {
			t.Fatalf("%s: fixture has occupied slots", tc.name)
		}
		c := a.Clone()
		if !c.Equal(a) || c.OccupiedSlots() != 0 {
			t.Fatalf("%s: clone differs from its unoccupied source", tc.name)
		}
		if a.shared && c.Digest() != a.Digest() {
			t.Fatalf("%s: clone digest differs", tc.name)
		}
		want := New(tc.cfg)
		c.Update(2, 99, 1)
		if !a.Equal(want) || a.OccupiedSlots() != 0 {
			t.Fatalf("%s: writing the clone moved the source", tc.name)
		}
		a.Update(1, 40, -2)
		wantC := New(tc.cfg)
		wantC.Update(2, 99, 1)
		if !c.Equal(wantC) {
			t.Fatalf("%s: writing the source moved the clone", tc.name)
		}
		if a.shared && c.Digest() != wantC.Digest() {
			t.Fatalf("%s: clone digest moved with the source", tc.name)
		}
	}
}

// TestAddAndAddRange: Add must be slotwise vector addition; AddRange must
// touch only the requested slots.
func TestAddAndAddRange(t *testing.T) {
	cfg := Config{Slots: 6, Universe: 128, Reps: 3, Seed: 8}
	whole := New(cfg)
	partA := New(cfg)
	partB := New(cfg)
	r := hashing.NewRNG(23)
	for i := 0; i < 1000; i++ {
		slot := r.Intn(6)
		idx := uint64(r.Intn(128))
		whole.Update(slot, idx, 1)
		if i%2 == 0 {
			partA.Update(slot, idx, 1)
		} else {
			partB.Update(slot, idx, 1)
		}
	}
	merged := partA.Clone()
	merged.Add(partB)
	if !merged.Equal(whole) {
		t.Fatal("Add of two halves differs from whole")
	}
	// AddRange over all slots == Add; over an empty range == no-op.
	ranged := partA.Clone()
	ranged.AddRange(partB, 0, 6)
	if !ranged.Equal(whole) {
		t.Fatal("AddRange(0, Slots) differs from Add")
	}
	noop := partA.Clone()
	noop.AddRange(partB, 3, 3)
	if !noop.Equal(partA) {
		t.Fatal("empty AddRange must be a no-op")
	}
	// Partial range: only slots [0,3) of partB merged in.
	partial := partA.Clone()
	partial.AddRange(partB, 0, 3)
	wantPartial := partA.Clone()
	half := New(cfg)
	half.AddRange(partB, 0, 3)
	wantPartial.Add(half)
	if !partial.Equal(wantPartial) {
		t.Fatal("partial AddRange merged the wrong slots")
	}
}

// TestAggregatorMatchesCloneAdd: scratch-buffer aggregation must produce
// the same samples as the old clone-and-add path.
func TestAggregatorMatchesCloneAdd(t *testing.T) {
	const n, universe = 12, 12 * 12
	a := New(Config{Slots: n, Universe: universe, Reps: 4, Seed: 31})
	r := hashing.NewRNG(37)
	for i := 0; i < 400; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		idx := uint64(u*n + v)
		a.UpdateEdge(u, v, idx, 1)
	}
	comp := func(v int) int { return v % 3 } // three interleaved components
	ag := NewAggregator()
	ncomp := ag.Aggregate(a, comp)
	if ncomp != 3 {
		t.Fatalf("ncomp = %d, want 3", ncomp)
	}
	for c := 0; c < 3; c++ {
		// Reference: clone slot sums via Add on a 1-slot view using SumSlots.
		side := make([]bool, n)
		for v := 0; v < n; v++ {
			side[v] = v%3 == c
		}
		ref := NewAggregator()
		ri, rw, rok := ref.SumSlots(a, side)
		ai, aw, aok := ag.Sample(c)
		if ai != ri || aw != rw || aok != rok {
			t.Fatalf("component %d: aggregator sample (%d,%d,%v) != sum-side sample (%d,%d,%v)",
				c, ai, aw, aok, ri, rw, rok)
		}
	}
	// Reuse across rounds: aggregating a different partition must not be
	// contaminated by the previous one.
	ncomp2 := ag.Aggregate(a, func(v int) int { return 0 })
	if ncomp2 != 1 {
		t.Fatalf("ncomp2 = %d, want 1", ncomp2)
	}
	allSide := make([]bool, n)
	for i := range allSide {
		allSide[i] = true
	}
	ref := NewAggregator()
	ri, rw, rok := ref.SumSlots(a, allSide)
	ai, aw, aok := ag.Sample(0)
	if ai != ri || aw != rw || aok != rok {
		t.Fatal("aggregator reuse across partitions is contaminated")
	}
}

// TestStateRoundTrip: AppendStateTagged/DecodeStateTagged must round-trip
// cell state, and reject truncated state and any tag byte but the current
// one (0x00 was the retired fixed-size format).
func TestStateRoundTrip(t *testing.T) {
	cfg := Config{Slots: 5, Universe: 200, Reps: 3, Seed: 13}
	a := New(cfg)
	r := hashing.NewRNG(41)
	for i := 0; i < 300; i++ {
		a.Update(r.Intn(5), uint64(r.Intn(200)), int64(r.Intn(5)-2))
	}
	enc := a.AppendStateTagged(nil)
	b := New(cfg)
	rest, err := b.DecodeStateTagged(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !b.Equal(a) {
		t.Fatal("decoded arena differs from original")
	}
	if _, err := b.DecodeStateTagged(enc[:10]); err == nil {
		t.Fatal("truncated state must be rejected")
	}
	for _, tag := range []byte{0x00, 0x02} {
		mut := append([]byte{tag}, enc[1:]...)
		if _, err := b.DecodeStateTagged(mut); !errors.Is(err, wire.ErrBadEncoding) || !strings.HasPrefix(err.Error(), "sketchcore: ") {
			t.Fatalf("tag %#x: decode = %v, want a sketchcore: wire.ErrBadEncoding", tag, err)
		}
		if _, err := b.MergeStateTagged(mut); !errors.Is(err, wire.ErrBadEncoding) || !strings.HasPrefix(err.Error(), "sketchcore: ") {
			t.Fatalf("tag %#x: merge = %v, want a sketchcore: wire.ErrBadEncoding", tag, err)
		}
	}
}
