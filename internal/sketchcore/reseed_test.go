package sketchcore

import (
	"testing"

	"graphsketch/internal/hashing"
)

func perSlotSeeds(base uint64, slots int) []uint64 {
	seeds := make([]uint64, slots)
	for i := range seeds {
		seeds[i] = hashing.DeriveSeed(base, uint64(i))
	}
	return seeds
}

// reseed zeroes and reseeds slots [0, len(seeds)) in the given number of
// slot-owned ranges, the way the spanner builders' passes do: each range
// ResetSlots and SeedSlots its own slots, and the last range also zeroes
// every slot past them.
func reseed(a *Arena, seeds []uint64, ranges int) {
	live := len(seeds)
	for r := 0; r < ranges; r++ {
		lo, hi := r*live/ranges, (r+1)*live/ranges
		end := hi
		if r == ranges-1 {
			end = a.Slots()
		}
		a.ResetSlots(lo, end)
		a.SeedSlots(lo, seeds[lo:hi])
	}
}

// TestArenaReseedMatchesFresh: an arena carrying state from one seeding,
// zeroed and reseeded (ResetSlots + SeedSlots, in one range or several),
// must be bit-identical to a freshly constructed arena with the new seeds —
// the phase-reuse contract the spanner builders rely on.
func TestArenaReseedMatchesFresh(t *testing.T) {
	const slots, universe = 12, 1 << 10
	mk := func(seeds []uint64) *Arena {
		return New(Config{Slots: slots, Universe: universe, Reps: 3, SlotSeeds: seeds})
	}
	s1, s2 := perSlotSeeds(7, slots), perSlotSeeds(11, slots)
	for _, ranges := range []int{1, 2, 5} {
		a := mk(s1)
		for i := 0; i < 200; i++ {
			a.Update(i%slots, uint64(i*37)%universe, int64(i%5)-2)
		}
		reseed(a, s2, ranges)
		fresh := mk(s2)
		for i := 0; i < 150; i++ {
			a.Update(i%slots, uint64(i*53)%universe, 1)
			fresh.Update(i%slots, uint64(i*53)%universe, 1)
		}
		if !a.Equal(fresh) {
			t.Fatalf("ranges=%d: reseeded arena state differs from a fresh arena with the same seeds", ranges)
		}
		for s := 0; s < slots; s++ {
			ai, aw, aok := a.Sample(s)
			fi, fw, fok := fresh.Sample(s)
			if ai != fi || aw != fw || aok != fok {
				t.Fatalf("ranges=%d slot %d: reseeded sample (%d,%d,%v) != fresh (%d,%d,%v)", ranges, s, ai, aw, aok, fi, fw, fok)
			}
		}
	}
}

// TestArenaReseedPanics: SeedSlots is per-slot only and bounds-checked, and
// so is ResetSlots's range.
func TestArenaReseedPanics(t *testing.T) {
	expectPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", what)
			}
		}()
		f()
	}
	shared := New(Config{Slots: 4, Universe: 64, Reps: 2, Seed: 3})
	expectPanic("SeedSlots on a shared arena", func() { shared.SeedSlots(0, make([]uint64, 4)) })
	perSlot := New(Config{Slots: 4, Universe: 64, Reps: 2, SlotSeeds: perSlotSeeds(1, 4)})
	expectPanic("SeedSlots with an oversized seed slice", func() { perSlot.SeedSlots(0, make([]uint64, 5)) })
	expectPanic("SeedSlots past the last slot", func() { perSlot.SeedSlots(3, make([]uint64, 2)) })
	expectPanic("SeedSlots at a negative slot", func() { perSlot.SeedSlots(-1, make([]uint64, 1)) })
	expectPanic("ResetSlots past the last slot", func() { perSlot.ResetSlots(2, 5) })
	expectPanic("ResetSlots with lo > hi", func() { perSlot.ResetSlots(3, 2) })
}

// TestArenaReseedPrefix: reseeding only a prefix (the live slots of a later
// pass) must leave those slots bit-identical to a fresh arena's, with the
// stale tail provably empty.
func TestArenaReseedPrefix(t *testing.T) {
	const slots, universe = 10, 1 << 9
	s1, s2 := perSlotSeeds(3, slots), perSlotSeeds(5, 6)
	for _, ranges := range []int{1, 2, 3} {
		a := New(Config{Slots: slots, Universe: universe, Reps: 3, SlotSeeds: s1})
		for i := 0; i < 200; i++ {
			a.Update(i%slots, uint64(i*31)%universe, 1)
		}
		reseed(a, s2, ranges) // prefix of 6
		fresh := New(Config{Slots: 6, Universe: universe, Reps: 3, SlotSeeds: s2})
		for i := 0; i < 120; i++ {
			a.Update(i%6, uint64(i*41)%universe, 1)
			fresh.Update(i%6, uint64(i*41)%universe, 1)
		}
		for s := 0; s < 6; s++ {
			ai, aw, aok := a.Sample(s)
			fi, fw, fok := fresh.Sample(s)
			if ai != fi || aw != fw || aok != fok {
				t.Fatalf("ranges=%d prefix slot %d: sample (%d,%d,%v) != fresh (%d,%d,%v)", ranges, s, ai, aw, aok, fi, fw, fok)
			}
		}
		for s := 6; s < slots; s++ {
			if !a.IsZero(s) {
				t.Fatalf("ranges=%d: tail slot %d not zero after prefix reseed", ranges, s)
			}
		}
	}
}

// TestArenaDeferTablesBitIdentical: the direct-term policy must produce the
// exact cell state and samples of the table-served default.
func TestArenaDeferTablesBitIdentical(t *testing.T) {
	const slots, universe = 8, 1 << 14
	seeds := perSlotSeeds(31, slots)
	tab := New(Config{Slots: slots, Universe: universe, Reps: 3, SlotSeeds: seeds})
	direct := New(Config{Slots: slots, Universe: universe, Reps: 3, SlotSeeds: seeds, DeferTables: true})
	x := uint64(9)
	for i := 0; i < 500; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot, idx, d := int(x%slots), (x>>8)%universe, int64(x%7)-3
		tab.Update(slot, idx, d)
		direct.Update(slot, idx, d)
	}
	for i := range tab.cells {
		if tab.cells[i] != direct.cells[i] {
			t.Fatalf("cell %d differs between table-served and direct-term policies", i)
		}
	}
	for s := 0; s < slots; s++ {
		ti, tw, tok := tab.Sample(s)
		di, dw, dok := direct.Sample(s)
		if ti != di || tw != dw || tok != dok {
			t.Fatalf("slot %d: table sample (%d,%d,%v) != direct (%d,%d,%v)", s, ti, tw, tok, di, dw, dok)
		}
	}
}

func TestArenaSampleUnoccupiedSlot(t *testing.T) {
	a := New(Config{Slots: 4, Universe: 64, Reps: 2, SlotSeeds: perSlotSeeds(5, 4)})
	a.Update(1, 7, 1)
	if _, _, ok := a.Sample(0); ok {
		t.Fatal("unoccupied slot must not sample")
	}
	if idx, _, ok := a.Sample(1); !ok || idx != 7 {
		t.Fatalf("occupied slot: sample (%d, ok=%v), want (7, true)", idx, ok)
	}
}
