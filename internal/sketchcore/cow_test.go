package sketchcore

import (
	"slices"
	"testing"

	"graphsketch/internal/stream"
)

// TestArenaCloneCopyOnWrite: Clone shares cells until a write, so for every
// method that writes cells or occupancy, writing any one of an arena, its
// clone and the clone's clone must leave the other two's cells, occupancy
// and digest as they were, and must land exactly what the same write lands
// on an arena that was never cloned.
func TestArenaCloneCopyOnWrite(t *testing.T) {
	type state struct {
		cells []acell
		occ   []uint64
		dig   Digest
	}
	snap := func(a *Arena) state { return state{slices.Clone(a.cells), slices.Clone(a.occ), a.dig} }
	same := func(x, y state) bool {
		return slices.Equal(x.cells, y.cells) && slices.Equal(x.occ, y.occ) && x.dig == y.dig
	}
	edgeFixture := func(slots int) func() *Arena {
		return func() *Arena {
			a := newEdgeArena(slots, 11)
			fillArena(a, 5, 4*slots)
			return a
		}
	}
	small, big := edgeFixture(70), edgeFixture(640)
	perSlot := func() *Arena {
		a := New(Config{Slots: 5, Universe: 256, Reps: 2, SlotSeeds: []uint64{1, 2, 3, 4, 5}})
		fillArena(a, 5, 40)
		return a
	}
	src, src2 := newEdgeArena(70, 11), newEdgeArena(70, 11)
	fillArena(src, 9, 300)
	fillArena(src2, 10, 300)
	bigSrcs := make([]*Arena, 8)
	for i := range bigSrcs {
		bigSrcs[i] = newEdgeArena(640, 11)
		fillArena(bigSrcs[i], uint64(i)*13+1, 3000) // above MergeMany's fan-out threshold
	}
	var ups []stream.Update
	for i := 0; i < 50; i++ {
		ups = append(ups, stream.Update{U: i % 70, V: (i*7 + 3) % 70, Delta: int64(i%5) - 2})
	}
	plan := &EdgePlan{}
	if plan.Build(ups, 70) != len(ups) {
		t.Fatal("fixture batch does not fit one plan")
	}
	srcBytes := src.AppendStateTagged(nil)

	for _, tc := range []struct {
		name    string
		fixture func() *Arena
		write   func(*Arena)
	}{
		{"Update", small, func(a *Arena) { a.Update(3, 17, 2) }},
		{"UpdateEdge", small, func(a *Arena) { a.UpdateEdge(1, 66, 130, 3) }},
		{"UpdateEdges", small, func(a *Arena) { a.UpdateEdges(ups) }},
		{"ApplyPlan", small, func(a *Arena) { a.ApplyPlan(plan) }},
		{"applyPlanEdgeMajor", small, func(a *Arena) { a.applyPlanEdgeMajor(plan) }},
		{"UpdateAll", small, func(a *Arena) { a.UpdateAll(40, 1) }},
		{"Add", small, func(a *Arena) { a.Add(src) }},
		{"AddRange", small, func(a *Arena) { a.AddRange(src, 2, 68) }},
		{"MergeMany", small, func(a *Arena) { a.MergeMany([]*Arena{src, src2}) }},
		{"MergeMany/fan-out", big, func(a *Arena) { a.MergeMany(bigSrcs) }},
		{"DecodeStateTagged", small, func(a *Arena) { mustDecode(t, a.DecodeStateTagged, srcBytes) }},
		{"MergeStateTagged", small, func(a *Arena) { mustDecode(t, a.MergeStateTagged, srcBytes) }},
		{"Reset", small, func(a *Arena) { a.Reset() }},
		{"per-slot/Update", perSlot, func(a *Arena) { a.Update(2, 99, 1) }},
		{"per-slot/UpdateAll", perSlot, func(a *Arena) { a.UpdateAll(7, -1) }},
		{"per-slot/UpdateMarked", perSlot, func(a *Arena) { a.UpdateMarked(make([]uint64, a.MarkWords()), 2, 99, 1) }},
		{"per-slot/ResetSlots", perSlot, func(a *Arena) { a.ResetSlots(1, 4) }},
		{"per-slot/Remark", perSlot, func(a *Arena) { a.Remark([][]uint64{{0b10100}, {0b1}}) }},
	} {
		for w, side := range []string{"source", "clone", "clone of the clone"} {
			a := tc.fixture()
			c := a.Clone()
			arenas := []*Arena{a, c, c.Clone()}
			before := make([]state, len(arenas))
			for i, x := range arenas {
				before[i] = snap(x)
			}
			tc.write(arenas[w])
			for i, x := range arenas {
				if i != w && !same(snap(x), before[i]) {
					t.Errorf("%s: writing the %s moved arena %d", tc.name, side, i)
				}
			}
			want := tc.fixture()
			tc.write(want)
			if !same(snap(arenas[w]), snap(want)) {
				t.Errorf("%s: the write on the %s differs from the write on an arena never cloned", tc.name, side)
			}
		}
	}
}

// mustDecode runs one tagged-state decode of data and fails unless it
// consumes data cleanly.
func mustDecode(t *testing.T, decode func([]byte) ([]byte, error), data []byte) {
	t.Helper()
	if rest, err := decode(data); err != nil || len(rest) != 0 {
		t.Fatalf("decode: %d bytes left, err %v", len(rest), err)
	}
}

// TestZeroSlabStaysZero: every new arena starts copy-on-write over the one
// process-wide zero slab, so every method that writes cells or occupancy
// must take its own copy first. Drive each on fresh arenas of both seeding
// modes, then require the slab to be all zero still.
func TestZeroSlabStaysZero(t *testing.T) {
	edge := func() *Arena { return newEdgeArena(70, 11) }
	big := func() *Arena { return newEdgeArena(640, 11) }
	perSlot := func() *Arena {
		return New(Config{Slots: 5, Universe: 256, Reps: 2, SlotSeeds: []uint64{1, 2, 3, 4, 5}})
	}
	src := newEdgeArena(70, 11)
	fillArena(src, 9, 300)
	bigSrcs := make([]*Arena, 8)
	for i := range bigSrcs {
		bigSrcs[i] = newEdgeArena(640, 11)
		fillArena(bigSrcs[i], uint64(i)*13+1, 3000) // above MergeMany's fan-out threshold
	}
	var ups []stream.Update
	for i := 0; i < 50; i++ {
		ups = append(ups, stream.Update{U: i % 70, V: (i*7 + 3) % 70, Delta: int64(i%5) - 2})
	}
	plan := &EdgePlan{}
	plan.Build(ups, 70)
	srcBytes := src.AppendStateTagged(nil)
	slabZero := func() bool {
		cells, occ := zeroSlab()
		for _, c := range cells {
			if c != (acell{}) {
				return false
			}
		}
		for _, w := range occ {
			if w != 0 {
				return false
			}
		}
		return true
	}
	for _, tc := range []struct {
		name    string
		fixture func() *Arena
		write   func(*Arena)
	}{
		{"Update", edge, func(a *Arena) { a.Update(3, 17, 2) }},
		{"UpdateEdge", edge, func(a *Arena) { a.UpdateEdge(1, 66, 130, 3) }},
		{"UpdateEdges", edge, func(a *Arena) { a.UpdateEdges(ups) }},
		{"ApplyPlan", edge, func(a *Arena) { a.ApplyPlan(plan) }},
		{"applyPlanEdgeMajor", edge, func(a *Arena) { a.applyPlanEdgeMajor(plan) }},
		{"UpdateAll", edge, func(a *Arena) { a.UpdateAll(40, 1) }},
		{"Add", edge, func(a *Arena) { a.Add(src) }},
		{"AddRange", edge, func(a *Arena) { a.AddRange(src, 2, 68) }},
		{"MergeMany", edge, func(a *Arena) { a.MergeMany([]*Arena{src}) }},
		{"MergeMany/fan-out", big, func(a *Arena) { a.MergeMany(bigSrcs) }},
		{"DecodeStateTagged", edge, func(a *Arena) { mustDecode(t, a.DecodeStateTagged, srcBytes) }},
		{"MergeStateTagged", edge, func(a *Arena) { mustDecode(t, a.MergeStateTagged, srcBytes) }},
		{"per-slot/Update", perSlot, func(a *Arena) { a.Update(2, 99, 1) }},
		{"per-slot/UpdateAll", perSlot, func(a *Arena) { a.UpdateAll(7, -1) }},
		{"per-slot/SeedSlots", perSlot, func(a *Arena) { a.ResetSlots(0, 3); a.SeedSlots(0, []uint64{9, 10, 11}); a.Update(1, 3, 1) }},
		{"per-slot/UpdateMarked", perSlot, func(a *Arena) { a.UpdateMarked(make([]uint64, a.MarkWords()), 2, 99, 1) }},
		{"per-slot/ResetSlots", perSlot, func(a *Arena) { a.ResetSlots(1, 4) }},
		{"per-slot/Remark", perSlot, func(a *Arena) { a.Remark([][]uint64{{0b10100}, {0b1}}) }},
	} {
		a := tc.fixture()
		tc.write(a)
		a.Reset() // a copy-on-write Reset must write nothing either
		if !slabZero() {
			t.Fatalf("%s on a fresh arena wrote the shared zero slab", tc.name)
		}
	}
}
