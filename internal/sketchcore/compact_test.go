package sketchcore

import (
	"bytes"
	"math"
	"testing"

	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// fillArena applies a deterministic pseudo-random update mix derived from
// seed: some slots stay untouched, some cancel back to zero.
func fillArena(a *Arena, seed uint64, n int) {
	x := seed | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := int(x % uint64(a.Slots()))
		idx := (x >> 8) % a.Universe()
		delta := int64(x%7) - 3
		a.Update(slot, idx, delta)
	}
}

func newEdgeArena(slots int, seed uint64) *Arena {
	return New(Config{Slots: slots, Universe: uint64(slots) * uint64(slots), Reps: 3, Seed: seed})
}

// TestTaggedRoundTrip: the tagged encoding must reproduce cell state bit
// for bit, for sparse, empty, and saturated occupancy, in both seeding
// modes.
func TestTaggedRoundTrip(t *testing.T) {
	slotSeeds := make([]uint64, 10)
	for i := range slotSeeds {
		slotSeeds[i] = uint64(i)*977 + 5
	}
	cases := []struct {
		name string
		prep func() *Arena
	}{
		{"empty", func() *Arena { return newEdgeArena(20, 7) }},
		{"sparse", func() *Arena {
			a := newEdgeArena(20, 7)
			a.UpdateEdge(3, 11, 3*20+11, 2)
			a.UpdateEdge(0, 19, 19, -1)
			return a
		}},
		{"dense", func() *Arena {
			a := newEdgeArena(20, 7)
			fillArena(a, 99, 4000)
			return a
		}},
		{"cancelled", func() *Arena {
			a := newEdgeArena(20, 7)
			a.UpdateEdge(2, 5, 45, 4)
			a.UpdateEdge(2, 5, 45, -4)
			return a
		}},
		{"per-slot", func() *Arena {
			a := New(Config{Slots: 10, Universe: 1 << 16, Reps: 2, SlotSeeds: slotSeeds})
			a.Update(1, 77, 3)
			a.Update(9, 1002, -2)
			return a
		}},
	}
	for _, tc := range cases {
		a := tc.prep()
		enc := a.AppendStateTagged(nil)
		var b *Arena
		if tc.name == "per-slot" {
			b = New(Config{Slots: 10, Universe: 1 << 16, Reps: 2, SlotSeeds: slotSeeds})
		} else {
			b = newEdgeArena(20, 7)
		}
		// Pre-pollute the destination: decode must replace, not merge.
		b.Update(0, 1, 5)
		rest, err := b.DecodeStateTagged(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", tc.name, len(rest))
		}
		want := a
		if tc.name == "cancelled" {
			// The encoding carries cells, not occupancy: the slot whose
			// writes cancelled decodes unoccupied, as if never written.
			want = newEdgeArena(20, 7)
		}
		if !want.Equal(b) {
			t.Fatalf("%s: round-trip not bit-identical", tc.name)
		}
		// Canonical encoding: re-encoding the decoded state reproduces the
		// bytes, and the occupancy-guided dry sizer agrees with the real
		// encoder byte for byte.
		if enc2 := b.AppendStateTagged(nil); string(enc) != string(enc2) {
			t.Fatalf("%s: compact encoding not canonical", tc.name)
		}
		if got := 1 + a.CompactStateSize(); got != len(enc) {
			t.Fatalf("%s: CompactStateSize %d != encoded %d", tc.name, got, len(enc))
		}
	}
}

// TestMergeStateTaggedEqualsAdd: folding serialized state must equal
// decoding into a scratch arena and Add-ing it.
func TestMergeStateTaggedEqualsAdd(t *testing.T) {
	a := newEdgeArena(24, 3)
	fillArena(a, 1, 300)
	b := newEdgeArena(24, 3)
	fillArena(b, 2, 50)

	want := a.Clone()
	want.Add(b)

	got := a.Clone()
	rest, err := got.MergeStateTagged(b.AppendStateTagged(nil))
	if err != nil || len(rest) != 0 {
		t.Fatalf("merge: %v (%d rest)", err, len(rest))
	}
	if !got.Equal(want) {
		t.Fatal("wire merge differs from Add")
	}
}

// TestMergeManyBitIdentical: the k-way fold must equal sequential pairwise
// Add calls, on sparse and on dense-enough-to-shard workloads.
func TestMergeManyBitIdentical(t *testing.T) {
	for _, cfg := range []struct {
		name          string
		slots, k, ups int
	}{
		{"sparse", 96, 7, 10},
		{"dense-parallel", 640, 8, 3000}, // above the goroutine threshold on multicore
	} {
		sources := make([]*Arena, cfg.k)
		for i := range sources {
			sources[i] = newEdgeArena(cfg.slots, 11)
			fillArena(sources[i], uint64(i)*13+1, cfg.ups)
		}
		seq := newEdgeArena(cfg.slots, 11)
		for _, s := range sources {
			seq.Add(s)
		}
		many := newEdgeArena(cfg.slots, 11)
		many.MergeMany(sources)
		if !many.Equal(seq) {
			t.Fatalf("%s: MergeMany differs from sequential Add", cfg.name)
		}
	}
}

// TestResetZeroesOccupiedOnly: Reset must clear state and occupancy, and a
// reset arena must merge like a fresh one.
func TestResetZeroesOccupiedOnly(t *testing.T) {
	a := newEdgeArena(32, 5)
	fillArena(a, 17, 200)
	if a.OccupiedSlots() == 0 {
		t.Fatal("expected occupancy after updates")
	}
	a.Reset()
	if a.OccupiedSlots() != 0 {
		t.Fatal("Reset left occupancy bits")
	}
	if !a.Equal(newEdgeArena(32, 5)) {
		t.Fatal("Reset left cell state")
	}
}

// TestOccupancyConservative: occupancy must never be clear for a slot with
// non-zero state (the safety direction; over-marking is allowed).
func TestOccupancyConservative(t *testing.T) {
	a := newEdgeArena(40, 9)
	fillArena(a, 23, 500)
	b := newEdgeArena(40, 9)
	b.UpdateEdges(stream.UniformUpdates(40, 300, 4).Updates)
	a.Add(b)
	for _, ar := range []*Arena{a, b} {
		for slot := 0; slot < ar.Slots(); slot++ {
			if ar.SlotOccupied(slot) {
				continue
			}
			base := ar.cellBase(slot, 0)
			for j := 0; j < ar.Reps()*ar.Levels(); j++ {
				if ar.cells[base+j] != (acell{}) {
					t.Fatalf("slot %d unmarked but has state", slot)
				}
			}
		}
	}
}

// FuzzCompactRoundTrip: for arbitrary update mixes (including all-zero and
// fully dense rows via the seed corpus), the compact encoding must
// round-trip bit-identically.
func FuzzCompactRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint16(0))      // all-zero arena
	f.Add(uint64(1), uint16(5000))   // dense rows
	f.Add(uint64(42), uint16(3))     // sparse
	f.Add(uint64(999), uint16(1000)) // mixed
	f.Fuzz(func(t *testing.T, seed uint64, nups uint16) {
		a := newEdgeArena(16, 21)
		fillArena(a, seed, int(nups)%6000)
		enc := a.AppendStateTagged(nil)
		b := newEdgeArena(16, 21)
		rest, err := b.DecodeStateTagged(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !a.Equal(b) {
			t.Fatal("compact round-trip not bit-identical")
		}
		enc2 := b.AppendStateTagged(nil)
		if string(enc) != string(enc2) {
			t.Fatal("compact encoding not canonical")
		}
		if got := 1 + a.CompactStateSize(); got != len(enc) {
			t.Fatalf("CompactStateSize %d != encoded %d", got, len(enc))
		}
	})
}

// appendRunsReference is the accessor-driven compact encoding every other
// layer still uses; the arena's direct-walk arm must emit its bytes exactly.
func appendRunsReference(buf []byte, a *Arena) []byte {
	return wire.AppendRuns(wire.AppendTag(buf), len(a.cells), func(i int) (int64, int64, uint64) {
		c := &a.cells[i]
		return c.w, c.s, c.f
	})
}

// checkCompactArm compares the two encoders on a's current state, appending
// to buffers that force every growth case: nil, a prefix with no spare
// capacity, and a prefix with room for only part of the first literal run.
func checkCompactArm(t *testing.T, a *Arena) {
	t.Helper()
	prefix := []byte("prefix")
	for _, buf := range [][]byte{nil, prefix[:len(prefix):len(prefix)], append(make([]byte, 0, len(prefix)+wire.MaxCellBytes+3), prefix...)} {
		want := appendRunsReference(append([]byte(nil), buf...), a)
		got := a.AppendStateTagged(buf)
		if string(got) != string(want) {
			t.Fatalf("direct-walk compact encoding differs from wire.AppendRuns (prefix %d, cap %d)", len(buf), cap(buf))
		}
	}
}

// TestCompactArmMatchesAppendRuns is the differential property test behind
// the arena's closure-free compact encoder, over the row shapes where a run
// boundary can go wrong.
func TestCompactArmMatchesAppendRuns(t *testing.T) {
	t.Run("all-zero", func(t *testing.T) {
		checkCompactArm(t, newEdgeArena(16, 21))
	})
	t.Run("dense", func(t *testing.T) {
		a := newEdgeArena(16, 21)
		a.Own() // direct cell writes: leave the zero slab
		for i := range a.cells {
			// Extremes force 10-byte varints: the per-run reservation must
			// cover the largest cell.
			a.cells[i] = acell{w: math.MinInt64 + int64(i), s: math.MaxInt64 - int64(i), f: uint64(i) + 1}
		}
		checkCompactArm(t, a)
	})
	t.Run("cancelled-to-zero", func(t *testing.T) {
		// Every update followed by its inverse: the slots stay marked
		// occupied, every cell is back to zero.
		a := newEdgeArena(16, 21)
		for slot := 0; slot < a.Slots(); slot++ {
			for idx := uint64(0); idx < a.Universe(); idx += 7 {
				a.Update(slot, idx, 3)
				a.Update(slot, idx, -3)
			}
		}
		for i, c := range a.cells {
			if c != (acell{}) {
				t.Fatalf("fixture did not cancel: cell %d = %+v", i, c)
			}
		}
		checkCompactArm(t, a)
	})
	t.Run("single-cell", func(t *testing.T) {
		n := len(newEdgeArena(16, 21).cells)
		for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
			a := newEdgeArena(16, 21)
			a.Own()
			a.cells[i] = acell{w: 1, s: int64(i), f: 12345}
			checkCompactArm(t, a)
		}
	})
	t.Run("random", func(t *testing.T) {
		for seed := uint64(1); seed <= 20; seed++ {
			a := newEdgeArena(16, 21)
			fillArena(a, seed, int(seed*seed*13)%6000)
			checkCompactArm(t, a)
		}
	})
}

// FuzzCompactArmDifferential drives the same comparison from arbitrary cell
// patterns: each input byte sets one cell (0 leaves it zero), so the fuzzer
// controls exactly where runs start and end.
func FuzzCompactArmDifferential(f *testing.F) {
	f.Add([]byte{})                                // all-zero
	f.Add([]byte{1})                               // single leading cell
	f.Add([]byte{0, 0, 0, 7})                      // single cell after a zero run
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})          // one dense run
	f.Add([]byte{1, 0, 1, 0, 1, 0, 0, 0, 2, 2})    // alternating runs
	f.Add([]byte{0, 0, 9, 9, 0xff, 0x80, 0, 0, 0}) // wide values mid-array
	f.Add(append(make([]byte, 200), 3))            // long zero run (2-byte varint)
	f.Add(bytes.Repeat([]byte{0x41}, 300))         // long literal run (2-byte count)
	f.Fuzz(func(t *testing.T, pattern []byte) {
		a := newEdgeArena(16, 21)
		a.Own()
		for i, p := range pattern {
			if i >= len(a.cells) {
				break
			}
			if p != 0 {
				v := int64(p)
				if p&0x80 != 0 {
					v = -v << 40 // multi-byte varints
				}
				a.cells[i] = acell{w: v, s: v * int64(i+1), f: uint64(p) * 0x9e3779b97f4a7c15}
			}
		}
		checkCompactArm(t, a)
	})
}
