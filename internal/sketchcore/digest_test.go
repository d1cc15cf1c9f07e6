package sketchcore

import (
	"bytes"
	"hash/crc64"
	"math"
	"math/rand"
	"testing"

	"graphsketch/internal/stream"
)

// checkDigest fails unless the arena's maintained digest equals the one
// scanned from its cells.
func checkDigest(t *testing.T, step string, a *Arena) {
	t.Helper()
	if got, want := a.Digest(), a.ScanDigest(); got != want {
		t.Fatalf("%s: maintained digest %+v != scanned %+v", step, got, want)
	}
}

// wrapUpdates is a batch whose deltas sit near +-2^62, so cell counts and
// index-weighted sums wrap int64 within a few updates.
func wrapUpdates(rng *rand.Rand, n, count int) []stream.Update {
	ups := make([]stream.Update, count)
	for i := range ups {
		d := int64(1)<<62 - int64(rng.Intn(5))
		if rng.Intn(2) == 0 {
			d = -d
		}
		ups[i] = stream.Update{U: rng.Intn(n), V: rng.Intn(n), Delta: d}
	}
	return ups
}

// TestDigestMaintainedEqualsScan drives every write path of a shared-seed
// arena and requires, after each, that the digest maintained from the
// writes equals the digest computed from the cells — through int64 wraps
// and cancellations — and that the digest is canonical: the same multiset
// of updates in any batching, on any path, gives the same digest.
func TestDigestMaintainedEqualsScan(t *testing.T) {
	const slots = 40
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newPlanTestArena(slots, uint64(seed))
		checkDigest(t, "new", a)
		var all []stream.Update
		var batches [][]stream.Update
		feed := func(ups []stream.Update) {
			all = append(all, ups...)
			batches = append(batches, ups)
			a.UpdateEdges(ups)
		}
		feed(randomChurnUpdates(rng, slots, 300))
		checkDigest(t, "UpdateEdges", a)
		feed(randomChurnUpdates(rng, slots, 3*planChunk)) // coalesced path
		checkDigest(t, "UpdateEdges coalesced", a)
		feed(wrapUpdates(rng, slots, 64))
		checkDigest(t, "UpdateEdges near 2^62", a)
		for _, up := range wrapUpdates(rng, slots, 32) {
			all = append(all, up)
			batches = append(batches, []stream.Update{up})
			if up.U == up.V {
				continue
			}
			u, v := up.U, up.V
			if u > v {
				u, v = v, u
			}
			a.UpdateEdge(u, v, stream.EdgeIndex(u, v, slots), up.Delta)
		}
		checkDigest(t, "UpdateEdge", a)

		// The same multiset, replayed in other batchings and through the
		// edge-major reference kernel and the bank-parallel kernel. (The
		// bank-parallel replay keeps the original batches: coalescing a
		// batch whose summed deltas overflow int64 is not linear in the
		// fingerprints, a property of the coalescer, not of the digest.)
		one := newPlanTestArena(slots, uint64(seed))
		for _, up := range all {
			one.UpdateEdges([]stream.Update{up})
		}
		ref := newPlanTestArena(slots, uint64(seed))
		var plan EdgePlan
		for rest := all; len(rest) > 0; {
			rest = rest[plan.Build(rest, slots):]
			ref.applyPlanEdgeMajor(&plan)
		}
		banks := []*Arena{newPlanTestArena(slots, uint64(seed)), newPlanTestArena(slots, uint64(seed))}
		var bankPlan *EdgePlan
		for _, ups := range batches {
			ReplayPlanned(ups, slots, &bankPlan, func(p *EdgePlan) {
				ForkJoin(len(banks), 2, func(i int) { banks[i].ApplyPlan(p) })
			})
		}
		for name, b := range map[string]*Arena{"per-update": one, "edge-major": ref, "bank-parallel": banks[1]} {
			checkDigest(t, name, b)
			if !b.Equal(a) || b.Digest() != a.Digest() {
				t.Fatalf("seed %d: %s replay disagrees with the batched one", seed, name)
			}
		}

		// Merges add digests; decodes recompute them from the bytes.
		other := newPlanTestArena(slots, uint64(seed))
		other.UpdateEdges(randomChurnUpdates(rng, slots, 200))
		sum := a.Digest().Add(other.Digest())
		cl := a.Clone()
		cl.Add(other)
		checkDigest(t, "Add", cl)
		many := a.Clone()
		many.MergeMany([]*Arena{other, other.Clone()})
		checkDigest(t, "MergeMany", many)
		wire := a.Clone()
		if _, err := wire.MergeStateTagged(other.AppendStateTagged(nil)); err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "MergeStateTagged", wire)
		if wire.Digest() != sum || cl.Digest() != sum {
			t.Fatalf("seed %d: merged digest is not the sum of the parts", seed)
		}
		ranged := a.Clone()
		ranged.AddRange(other, 5, 17)
		checkDigest(t, "AddRange", ranged)
		dec := newPlanTestArena(slots, uint64(seed))
		dec.UpdateEdges(randomChurnUpdates(rng, slots, 50))
		if _, err := dec.DecodeStateTagged(a.AppendStateTagged(nil)); err != nil {
			t.Fatal(err)
		}
		if dec.Digest() != a.Digest() {
			t.Fatalf("seed %d: decoded digest differs from the encoder's", seed)
		}
		cl.Reset()
		if cl.Digest() != (Digest{}) || cl.ScanDigest() != (Digest{}) {
			t.Fatal("Reset kept a digest")
		}
	}
}

// TestDigestScalarPaths covers the per-update writers of a shared arena
// that the node-incidence banks do not use.
func TestDigestScalarPaths(t *testing.T) {
	a := New(Config{Slots: 9, Universe: 1 << 10, Reps: 3, Seed: 5})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a.Update(rng.Intn(9), uint64(rng.Intn(1<<10)), int64(rng.Intn(7)-3))
	}
	checkDigest(t, "Update", a)
	a.UpdateAll(77, 1<<62)
	a.UpdateAll(78, -3)
	checkDigest(t, "UpdateAll", a)
}

// TestDigestSeesSilentRot: a cell changed behind the arena's back moves the
// scanned digest but not the maintained one, and RescanDigest adopts it.
func TestDigestSeesSilentRot(t *testing.T) {
	a := newPlanTestArena(16, 3)
	a.UpdateEdges(randomChurnUpdates(rand.New(rand.NewSource(3)), 16, 200))
	rot := a.Clone()
	rot.UpdateEdge(2, 9, stream.EdgeIndex(2, 9, 16), 1)
	if err := WithoutDigest([]*Arena{a}, func() error {
		_, err := a.MergeStateTagged(rot.AppendStateTagged(nil))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if a.Digest() == a.ScanDigest() {
		t.Fatal("rot did not move the scanned digest")
	}
	a.RescanDigest()
	checkDigest(t, "RescanDigest", a)
	clean := a.AppendStateTagged(nil)
	for i, c := range a.cells {
		for _, flip := range []acell{{w: 1}, {s: -1}, {f: 1}} {
			x := a.Clone()
			x.Own() // the rot lands in x's own cells, not in the cells it shares with a
			x.cells[i] = acell{w: c.w + flip.w, s: c.s + flip.s, f: reduce61(c.f + flip.f)}
			x.markSlot(i / (x.reps * x.levels))
			if x.ScanDigest() == a.Digest() {
				t.Fatalf("cell %d: single-field change %+v left the digest unchanged", i, flip)
			}
			mustBeUnmoved(t, a, clean)
		}
		if i > 200 {
			break
		}
	}
}

// mustBeUnmoved fails unless a's bytes are still clean and its maintained
// digest still matches a scan: an edit made on a Clone must not reach a.
func mustBeUnmoved(t *testing.T, a *Arena, clean []byte) {
	t.Helper()
	if a.ScanDigest() != a.Digest() {
		t.Fatal("an edit of a clone moved the source's scanned digest")
	}
	if !bytes.Equal(a.AppendStateTagged(nil), clean) {
		t.Fatal("an edit of a clone moved the source's bytes")
	}
}

// TestDigestLinearBlindSpot pins what the linear leaf cannot see, so the
// trade against a CRC64 over the bank's bytes stays explicit. W is linear
// over Z/2^64 with odd multipliers, so a flip of bit 63 moves it by 2^63
// whatever the multiplier, and two such flips cancel: bit 63 of both counts
// of one cell, or of the w counts of two cells. The bytes (and their
// CRC64) move; the digest does not. A single flip of any bit of either
// count is always seen.
func TestDigestLinearBlindSpot(t *testing.T) {
	a := newPlanTestArena(16, 3)
	a.UpdateEdges(randomChurnUpdates(rand.New(rand.NewSource(3)), 16, 200))
	table := crc64.MakeTable(crc64.ECMA)
	clean := a.AppendStateTagged(nil)
	flip := func(edit func(x *Arena)) (*Arena, bool) {
		x := a.Clone()
		x.Own() // the flips land in x's own cells, not in the cells it shares with a
		edit(x)
		x.markSlot(0)
		x.markSlot(len(x.cells)/(x.reps*x.levels) - 1)
		rotted := x.AppendStateTagged(nil)
		mustBeUnmoved(t, a, clean)
		return x, !bytes.Equal(rotted, clean) && crc64.Checksum(rotted, table) != crc64.Checksum(clean, table)
	}
	const top = math.MinInt64 // bit 63 of an int64 count
	last := len(a.cells) - 1
	for name, edit := range map[string]func(x *Arena){
		"w and s of one cell": func(x *Arena) { x.cells[0].w ^= top; x.cells[0].s ^= top },
		"w of two cells":      func(x *Arena) { x.cells[0].w ^= top; x.cells[last].w ^= top },
	} {
		x, moved := flip(edit)
		if !moved {
			t.Fatalf("%s: the edit did not change the bytes' CRC64", name)
		}
		if got := x.ScanDigest(); got != a.Digest() || got.Fold() != a.Digest().Fold() {
			t.Fatalf("%s: the linear digest saw a double bit-63 flip; update the documented blind spot", name)
		}
	}
	for b := 0; b < 64; b++ {
		for field, edit := range map[string]func(c *acell){
			"w": func(c *acell) { c.w ^= int64(1) << b },
			"s": func(c *acell) { c.s ^= int64(1) << b },
		} {
			if x, _ := flip(func(x *Arena) { edit(&x.cells[last]) }); x.ScanDigest().Fold() == a.Digest().Fold() {
				t.Fatalf("flip of bit %d of %s went unseen", b, field)
			}
		}
	}
}
