package sketchcore

import (
	"testing"

	"graphsketch/internal/hashing"
	"graphsketch/internal/stream"
)

// TestUpdateEdgesMatchesUpdateEdge: the batch kernel must leave the arena
// bit-identical to per-update UpdateEdge calls, across chunk boundaries,
// self-loops, zero deltas, and un-canonical endpoint order.
func TestUpdateEdgesMatchesUpdateEdge(t *testing.T) {
	const n = 32
	for _, m := range []int{0, 1, 7, planChunk, planChunk + 1, 2*planChunk + 17} {
		cfg := Config{Slots: n, Universe: n * n, Reps: 3, Seed: 0xbabc ^ uint64(m)}
		batch := New(cfg)
		scalar := New(cfg)
		r := hashing.NewRNG(uint64(m) + 5)
		ups := make([]stream.Update, m)
		for i := range ups {
			u, v := r.Intn(n), r.Intn(n)
			ups[i] = stream.Update{U: u, V: v, Delta: int64(r.Intn(7) - 3)}
		}
		batch.UpdateEdges(ups)
		for _, up := range ups {
			if up.U == up.V || up.Delta == 0 {
				continue
			}
			u, v := up.U, up.V
			if u > v {
				u, v = v, u
			}
			scalar.UpdateEdge(u, v, uint64(u)*n+uint64(v), up.Delta)
		}
		if !batch.Equal(scalar) {
			t.Fatalf("m=%d: batch kernel diverged from per-update path", m)
		}
	}
}

// TestUpdateEdgesPanics: the kernel is only defined for shared-seed
// node-incidence banks.
func TestUpdateEdgesPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	perSlot := New(Config{Slots: 4, Universe: 16, Reps: 2, SlotSeeds: []uint64{1, 2, 3, 4}})
	expectPanic("per-slot", func() { perSlot.UpdateEdges([]stream.Update{{U: 0, V: 1, Delta: 1}}) })
	wrongUniverse := New(Config{Slots: 4, Universe: 100, Reps: 2, Seed: 9})
	expectPanic("universe", func() { wrongUniverse.UpdateEdges([]stream.Update{{U: 0, V: 1, Delta: 1}}) })
}

// TestPerSlotLazyPowTables: per-slot banks build tables only for updated
// slots, and sampling untouched slots works without building one.
func TestPerSlotLazyPowTables(t *testing.T) {
	seeds := []uint64{10, 11, 12, 13}
	a := New(Config{Slots: 4, Universe: 1 << 16, Reps: 4, SlotSeeds: seeds})
	base := a.Words()
	a.Update(1, 42, 1)
	a.Update(3, 7, 2)
	if a.pow[0] != nil || a.pow[2] != nil {
		t.Fatal("untouched slots should have no power table")
	}
	if a.pow[1] == nil || a.pow[3] == nil {
		t.Fatal("updated slots should have built their power table")
	}
	if a.Words() <= base {
		t.Fatal("Words should count lazily built tables")
	}
	if _, _, ok := a.Sample(0); ok {
		t.Fatal("empty slot sampled successfully")
	}
	if idx, w, ok := a.Sample(1); !ok || idx != 42 || w != 1 {
		t.Fatalf("slot 1 sample wrong: (%d, %d, %v)", idx, w, ok)
	}
}
