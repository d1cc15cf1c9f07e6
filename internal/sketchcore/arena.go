// Package sketchcore is the shared sampler substrate under every sketch in
// this repository: a bank of l0-samplers stored as one contiguous
// struct-of-arrays arena instead of a slice of heap-allocated samplers.
//
// A bank holds `slots` logical samplers (one per vertex, per sample index,
// per bucket — whatever the consumer banks over), each with reps x levels
// 1-sparse recovery cells. The three cell aggregates live interleaved in
// one flat array of 24-byte records indexed by (slot, rep, level), so an
// update touches one or two contiguous cache lines per cell row, a merge
// is a single linear array pass, and component aggregation during Boruvka
// extraction is a scratch-buffer accumulation instead of a map of cloned
// sampler objects.
//
// Two seeding modes cover every consumer:
//
//   - shared (Config.SlotSeeds == nil): all slots share one per-rep level
//     hash and one fingerprint base. Slots are mutually mergeable — exactly
//     the node-incidence banks of Sec. 3.3, where summing slots over a
//     vertex set must sketch the crossing edges. The expensive per-update
//     work (one table-served fingerprint term, one level hash per rep) is
//     done once and reused for both endpoints of an edge (UpdateEdge), and
//     UpdateEdges amortizes it across whole update batches.
//   - per-slot (Config.SlotSeeds != nil): every slot hashes independently,
//     for banks whose slots must behave as independent samplers (the
//     subgraph sketch's sample bank, the spanner group sampler buckets).
//
// All hash derivations are bit-compatible with internal/l0: an arena slot
// built from seed s holds exactly the cell states of l0.NewWithReps(U, s, R)
// after the same updates, and Sample scans repetitions and levels in the
// same order, so refactored consumers keep their sampling behavior.
package sketchcore

import (
	"math/bits"
	"slices"
	"sync"

	"graphsketch/internal/hashing"
	"graphsketch/internal/onesparse"
	"graphsketch/internal/stream"
)

// Config parameterizes an arena bank.
type Config struct {
	// Slots is the number of logical samplers in the bank (required).
	Slots int
	// Universe is the index universe [0, Universe) of every slot (required).
	Universe uint64
	// Reps is the per-slot repetition count (required, >= 1).
	Reps int
	// Seed seeds the bank in shared mode; ignored when SlotSeeds is set.
	Seed uint64
	// SlotSeeds, when non-nil (len == Slots), gives every slot its own
	// independent hash functions and fingerprint base, matching
	// l0.NewWithReps(Universe, SlotSeeds[i], Reps) per slot.
	SlotSeeds []uint64
	// DeferTables, in per-slot mode, disables the lazy per-slot power
	// tables: fingerprint terms and decode checks use direct
	// square-and-multiply on the slot's base instead (bit-identical by
	// PowTable's contract). Right for banks whose slots each see only a
	// handful of updates — the spanner group and join samplers — where a
	// table build (256 mulmods and an allocation per window, per touched
	// slot) never amortizes. Ignored in shared mode, whose single table is
	// built eagerly and shared by every update.
	DeferTables bool
}

// Arena is a flat bank of l0-samplers. See the package comment for layout.
type Arena struct {
	slots    int
	reps     int
	levels   int
	universe uint64
	seed     uint64
	shared   bool
	// deferTables suppresses per-slot power-table builds (see
	// Config.DeferTables); terms and decodes fall back to PowMod61 on the
	// slot's base, bit-identical to the table-served path.
	deferTables bool
	mix         []hashing.Mixer // shared: [rep]; per-slot: [slot*reps + rep]
	z           []uint64        // shared: [0]; per-slot: [slot]
	// pow holds the windowed z^index tables (same indexing as z). Shared
	// mode builds its single table eagerly; per-slot mode builds each
	// slot's table lazily on first update (or first non-empty decode),
	// so slots that never carry state pay nothing.
	pow   []*hashing.PowTable
	plan  *EdgePlan   // UpdateEdges staging, lazily built, reused across calls
	batch planScratch // ApplyPlan phase-1 term/level scratch, reused across chunks
	cells []acell     // cell aggregates, (slot*reps + rep)*levels + level
	// occ is the slot-occupancy bitmap (bit i set => slot i may hold
	// non-zero cells; clear => its cells are all zero). Maintained as a
	// monotone over-approximation by every state-writing path — updates,
	// plan replay, merges, wire decode — and consulted by the paths that
	// would otherwise stream untouched regions: merges, zeroing (Reset),
	// compact encoding size accounting, emptiness checks, and per-component
	// aggregation during extraction. A slot whose state cancels back to
	// zero stays marked (harmless: its zero row adds nothing); only Reset
	// and a wire decode that replaces the state recompute the bitmap.
	occ []uint64
	// cow marks cells and occ as possibly shared, with a Clone or with the
	// zero slab a new arena starts on: the next write takes its own copy
	// first (own). Clone marks both sides, and neither is told when the
	// other stops sharing, so a marked arena may copy once more than it had
	// to.
	cow bool
	// Shared-seed banks carry a maintained linear digest of their cells
	// (see Digest): dk is the shape's multiplier tables (nil in per-slot
	// mode, which keeps no digest), rhoW/rhoF the seed-derived scalars, and
	// dig the unscaled accumulator every write path moves by what it adds.
	dk         *digestKey
	rhoW, rhoF uint64
	dig        Digest
}

// acell is one 1-sparse recovery cell's aggregates, stored interleaved so a
// cell update touches one 24-byte record (usually one cache line) instead
// of three parallel-array strides.
//
// Hot-path representation: the arena stores EXACT-level increments — an
// update at level l lands in cell l of each repetition row and nowhere
// else (one cell write per rep, versus the nested representation's l+1).
// The nested values Theorem 2.1 reasons about, N(j) = sum_{j' >= j} D(j'),
// are reconstructed by suffix-summation on the cold paths only: decode
// scans top-down keeping a running sum (bit-identical to reading stored
// nested cells, since every aggregate is an exact commutative sum). The
// wire encoding carries the exact-level cells as stored.
type acell struct {
	w int64  // weight sum
	s int64  // index-weighted sum
	f uint64 // fingerprint
}

// New creates an arena bank. Panics on a malformed config (programming
// error, like the l0 constructors).
func New(cfg Config) *Arena {
	if cfg.Slots < 1 {
		panic("sketchcore: arena needs at least one slot")
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	if cfg.SlotSeeds != nil && len(cfg.SlotSeeds) != cfg.Slots {
		panic("sketchcore: len(SlotSeeds) must equal Slots")
	}
	a := &Arena{
		slots:       cfg.Slots,
		reps:        cfg.Reps,
		levels:      hashing.SamplerLevels(cfg.Universe),
		universe:    cfg.Universe,
		seed:        cfg.Seed,
		shared:      cfg.SlotSeeds == nil,
		deferTables: cfg.DeferTables && cfg.SlotSeeds != nil,
	}
	a.zeroState(a.slots*a.reps*a.levels, (a.slots+63)/64)
	if a.shared {
		a.mix = make([]hashing.Mixer, a.reps)
		for r := 0; r < a.reps; r++ {
			a.mix[r] = hashing.NewMixer(hashing.SamplerMixerSeed(cfg.Seed, r))
		}
		a.z = []uint64{onesparse.FingerprintBase(hashing.SamplerCellSeed(cfg.Seed))}
		a.pow = []*hashing.PowTable{hashing.NewPowTableMax(a.z[0], a.maxExp())}
		a.initDigest()
	} else {
		a.mix = make([]hashing.Mixer, a.slots*a.reps)
		a.z = make([]uint64, a.slots)
		a.pow = make([]*hashing.PowTable, a.slots)
		a.SeedSlots(0, cfg.SlotSeeds)
	}
	return a
}

// zeroSlabCells bounds the zero slab at 4 MB. Every sketch bank's arena
// fits (about 90 KB at n = 64); a larger arena, such as a spanner group
// bank (12 MB at n = 64), allocates its own zeroed cells. The bound caps
// what the slab can cost resident should the runtime hand it recycled
// pages, which it must clear.
const zeroSlabCells = 4 << 20 / 24

// zeroSlab is the process-wide, never-written cell state every arena
// within the bound starts on: New points cells and occ at a prefix of it
// and marks the arena copy-on-write, so a fresh arena costs no cell memory
// until its first write (own) takes its own zeroed copy, and reads need no
// special case. An arena has at most one slot per cell, so the occupancy
// slab covers every arena the cell slab does.
var zeroSlab = sync.OnceValues(func() ([]acell, []uint64) {
	return make([]acell, zeroSlabCells), make([]uint64, zeroSlabCells/64+1)
})

// zeroState gives a all-zero cells and occupancy of the given lengths: a
// copy-on-write view of the zero slab when they fit, else fresh arrays.
func (a *Arena) zeroState(cells, words int) {
	if cells <= zeroSlabCells {
		zc, zo := zeroSlab()
		a.cells, a.occ, a.cow = zc[:cells:cells], zo[:words:words], true
		return
	}
	a.cells, a.occ, a.cow = make([]acell, cells), make([]uint64, words), false
}

// SeedSlots re-derives the hash state (level mixers, fingerprint base) of
// slots [lo, lo+len(slotSeeds)) from fresh seeds and drops their built power
// tables, leaving every cell as it is. With ResetSlots it is the phase-reuse
// primitive of multi-pass consumers (the spanner builders): one arena serves
// every pass, each of the slot-owned ranges zeroing and reseeding its own
// slots (see ResetSlots). It writes only those slots' hash state. Slots a
// pass does not reseed keep their stale hash state; once zeroed they must
// not be updated or sampled until a later pass reseeds them. Hash state is
// rewritten in place, so a Clone of the arena must not be used past it.
// Per-slot mode only.
func (a *Arena) SeedSlots(lo int, slotSeeds []uint64) {
	if a.shared {
		panic("sketchcore: SeedSlots requires a per-slot arena")
	}
	if lo < 0 || lo+len(slotSeeds) > a.slots {
		panic("sketchcore: SeedSlots slot range out of bounds")
	}
	for j, si := range slotSeeds {
		i := lo + j
		for r := 0; r < a.reps; r++ {
			a.mix[i*a.reps+r] = hashing.NewMixer(hashing.SamplerMixerSeed(si, r))
		}
		a.z[i] = onesparse.FingerprintBase(hashing.SamplerCellSeed(si))
		a.pow[i] = nil
	}
}

// maxExp returns the largest z exponent the bank's power tables must cover:
// indices are in [0, universe).
func (a *Arena) maxExp() uint64 {
	if a.universe == 0 {
		return 0
	}
	return a.universe - 1
}

// Slots returns the number of logical samplers in the bank.
func (a *Arena) Slots() int { return a.slots }

// Reps returns the per-slot repetition count.
func (a *Arena) Reps() int { return a.reps }

// Levels returns the per-repetition level count.
func (a *Arena) Levels() int { return a.levels }

// Universe returns the index universe the bank was built for.
func (a *Arena) Universe() uint64 { return a.universe }

// Shared reports whether the bank is in shared-seed (mutually mergeable
// slots) mode.
func (a *Arena) Shared() bool { return a.shared }

// zOf returns the fingerprint base of slot i.
func (a *Arena) zOf(i int) uint64 {
	if a.shared {
		return a.z[0]
	}
	return a.z[i]
}

// mixOf returns the level hash of (slot i, rep r).
func (a *Arena) mixOf(i, r int) hashing.Mixer {
	if a.shared {
		return a.mix[r]
	}
	return a.mix[i*a.reps+r]
}

// powOf returns the z^index table of slot i, building it on first use in
// per-slot mode (a table build costs ~256 mulmods per window, repaid after
// a few dozen updates to the slot).
func (a *Arena) powOf(i int) *hashing.PowTable {
	if a.shared {
		return a.pow[0]
	}
	t := a.pow[i]
	if t == nil {
		t = hashing.NewPowTableMax(a.z[i], a.maxExp())
		a.pow[i] = t
	}
	return t
}

// peekPow returns slot i's table if it exists, without building one. A nil
// return means the slot has never been updated locally — its cells are
// all zero unless state arrived by Add or wire decode, which is why
// Sample builds the table on demand for non-zero slots rather than
// relying on nil implying emptiness.
func (a *Arena) peekPow(i int) *hashing.PowTable {
	if a.shared {
		return a.pow[0]
	}
	return a.pow[i]
}

// cellBase returns the array offset of cell (slot, rep, level 0).
func (a *Arena) cellBase(slot, rep int) int {
	return (slot*a.reps + rep) * a.levels
}

// markSlot records that slot may now hold non-zero cells.
func (a *Arena) markSlot(slot int) {
	a.occ[slot>>6] |= 1 << (uint(slot) & 63)
}

// SlotOccupied reports whether slot may hold non-zero cells; false
// guarantees its cells are all zero.
func (a *Arena) SlotOccupied(slot int) bool {
	return a.occ[slot>>6]&(1<<(uint(slot)&63)) != 0
}

// OccupiedSlots returns the number of marked slots (an upper bound on the
// slots with non-zero state).
func (a *Arena) OccupiedSlots() int {
	n := 0
	for _, w := range a.occ {
		n += bits.OnesCount64(w)
	}
	return n
}

// markAllSlots sets every slot's occupancy bit (the UpdateAll path).
func (a *Arena) markAllSlots() {
	for i := range a.occ {
		a.occ[i] = ^uint64(0)
	}
	if tail := uint(a.slots) & 63; tail != 0 {
		a.occ[len(a.occ)-1] = (1 << tail) - 1
	}
}

// own gives a its own cells and occupancy before a write, if a Clone or the
// zero slab left them shared: every method that writes either calls it
// first. An arena with no occupied slot has all-zero cells, so it takes
// fresh zeroed ones and copies none. Fan-outs that write disjoint ranges of
// one arena call it before forking.
func (a *Arena) own() {
	if a.cow {
		a.unshare() // out of line, so that own inlines into the write paths
	}
}

func (a *Arena) unshare() {
	a.cow = false
	if a.OccupiedSlots() == 0 {
		a.cells = make([]acell, len(a.cells))
		a.occ = make([]uint64, len(a.occ))
		return
	}
	a.cells = slices.Clone(a.cells)
	a.occ = slices.Clone(a.occ)
}

// Own takes a's own copy of the cells a Clone shares, as the first write
// would, so a caller can make the copies when and on which goroutines it
// chooses rather than leave them to later writes.
func (a *Arena) Own() { a.own() }

// SharesCells reports whether a and b hold the same cell array: an arena
// and its Clone do until either is written.
func (a *Arena) SharesCells(b *Arena) bool {
	return len(a.cells) > 0 && len(b.cells) > 0 && &a.cells[0] == &b.cells[0]
}

// Reset zeroes the arena's cell state, touching only occupied slot rows
// (zeroing an arena that carries little state costs proportionally little
// — the coordinator pattern of reusing one accumulator across batches). A
// copy-on-write arena drops the shared state unread and goes back on the
// zero slab, allocating nothing until its next write.
func (a *Arena) Reset() {
	a.dig = Digest{}
	if a.cow {
		a.zeroState(len(a.cells), len(a.occ))
		return
	}
	rowCells := a.reps * a.levels
	for wi, w := range a.occ {
		for w != 0 {
			slot := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			base := slot * rowCells
			row := a.cells[base : base+rowCells]
			for i := range row {
				row[i] = acell{}
			}
		}
		a.occ[wi] = 0
	}
}

// applyCell adds (delta, is = index*delta, precomputed fingerprint term) to
// the single exact-level cell at index i.
func (a *Arena) applyCell(i int, delta, is int64, term uint64) {
	cellAdd(&a.cells[i], delta, is, term)
}

// termOf computes the fingerprint term of (index, delta) under slot's base:
// table-served in the default policy, direct square-and-multiply under
// DeferTables — bit-identical either way.
func (a *Arena) termOf(slot int, index uint64, delta int64) uint64 {
	if a.deferTables {
		return onesparse.FingerprintTerm(a.z[slot], index, delta)
	}
	return onesparse.FingerprintTermTab(a.powOf(slot), index, delta)
}

// Update adds delta to coordinate index of one slot. Works in both seeding
// modes; expected O(reps) cell touches (the level distribution is
// geometric).
func (a *Arena) Update(slot int, index uint64, delta int64) {
	if delta == 0 {
		return
	}
	a.own()
	a.markSlot(slot)
	term := a.termOf(slot, index, delta)
	is := int64(index) * delta
	var m cellMul
	for r := 0; r < a.reps; r++ {
		l := a.mixOf(slot, r).Level(index)
		if l >= a.levels {
			l = a.levels - 1
		}
		a.applyCell(a.cellBase(slot, r)+l, delta, is, term)
		if a.shared {
			m.addLevel(a.dk, r*a.levels+l)
		}
	}
	if a.shared {
		a.dig = a.dig.Add(a.writeDigest(slot, delta, is, term, m))
	}
}

// The slot-owned fan-out: goroutines that each own a disjoint slot range of
// one per-slot arena zero, reseed and write only their own slots, with
// ResetSlots, SeedSlots and UpdateMarked. Two ranges' slots may share an
// occupancy word, so none of the three writes occupancy: UpdateMarked
// records its slot in the goroutine's own bitmap (MarkWords long), and
// after the join Remark makes the union of the bitmaps the occupancy. The
// caller Owns the arena before forking, and its ranges' ResetSlots calls
// together cover every slot.

// ResetSlots zeroes the occupied rows of slots [lo, hi), reading the
// occupancy but leaving it as it is (see above).
func (a *Arena) ResetSlots(lo, hi int) {
	if lo < 0 || hi > a.slots || lo > hi {
		panic("sketchcore: ResetSlots slot range out of bounds")
	}
	a.own()
	rowCells := a.reps * a.levels
	for slot := lo; slot < hi; {
		w := a.occ[slot>>6] >> (uint(slot) & 63)
		if w == 0 {
			slot = (slot | 63) + 1
			continue
		}
		slot += bits.TrailingZeros64(w)
		if slot >= hi {
			break
		}
		clear(a.cells[slot*rowCells : (slot+1)*rowCells])
		slot++
	}
}

// UpdateMarked is Update for the slot-owned fan-out: slot's occupancy bit
// goes to marks, the goroutine's own bitmap. Per-slot mode only (a
// shared-seed arena's digest is one accumulator).
func (a *Arena) UpdateMarked(marks []uint64, slot int, index uint64, delta int64) {
	if delta == 0 {
		return
	}
	if a.shared {
		panic("sketchcore: UpdateMarked requires a per-slot arena")
	}
	a.own()
	marks[slot>>6] |= 1 << (uint(slot) & 63)
	term := a.termOf(slot, index, delta)
	is := int64(index) * delta
	for r := 0; r < a.reps; r++ {
		l := a.mix[slot*a.reps+r].Level(index)
		if l >= a.levels {
			l = a.levels - 1
		}
		a.applyCell(a.cellBase(slot, r)+l, delta, is, term)
	}
}

// MarkWords is the length of the bitmaps UpdateMarked records into.
func (a *Arena) MarkWords() int { return len(a.occ) }

// Remark ends a slot-owned fan-out: the occupancy becomes the union of the
// ranges' bitmaps, which are cleared for the next fan-out.
func (a *Arena) Remark(marks [][]uint64) {
	a.own()
	for wi := range a.occ {
		var w uint64
		for _, m := range marks {
			w |= m[wi]
			m[wi] = 0
		}
		a.occ[wi] = w
	}
}

// UpdateEdge applies the node-incidence update of Eq. 1: +delta at index in
// uSlot, -delta at index in vSlot. Shared mode only (the two slots must
// agree on level hashes and fingerprint base); the level hash and the
// fingerprint power are computed once and reused for both endpoints —
// half the hashing of two independent Updates.
func (a *Arena) UpdateEdge(uSlot, vSlot int, index uint64, delta int64) {
	if delta == 0 {
		return
	}
	if !a.shared {
		panic("sketchcore: UpdateEdge requires a shared-seed arena")
	}
	a.own()
	a.markSlot(uSlot)
	a.markSlot(vSlot)
	term := onesparse.FingerprintTermTab(a.pow[0], index, delta)
	negTerm := onesparse.NegateMod61(term)
	is := int64(index) * delta
	var m cellMul
	for r := 0; r < a.reps; r++ {
		l := a.mix[r].Level(index)
		if l >= a.levels {
			l = a.levels - 1
		}
		a.applyCell(a.cellBase(uSlot, r)+l, delta, is, term)
		a.applyCell(a.cellBase(vSlot, r)+l, -delta, -is, negTerm)
		m.addLevel(a.dk, r*a.levels+l)
	}
	a.dig = a.dig.Add(a.edgeDigest(uSlot, vSlot, delta, is, term, m))
}

// UpdateEdges applies a batch of node-incidence edge updates (Eq. 1: +delta
// at the edge index in the lower endpoint's slot, -delta in the higher's)
// to a shared-seed bank whose slots are the n vertices and whose universe
// is the n^2 edge-index space — the layout every node-incidence consumer
// (ForestSketch and everything above it) uses.
//
// The batch is staged chunk by chunk into an EdgePlan — long batches first
// coalesced to one update per surviving edge; per-edge index, fingerprint
// term pair, and per-rep levels computed once; endpoint entries
// counting-sorted by slot — and replayed with ApplyPlan, which sweeps the
// cell arena in slot order. Cell state afterwards is bit-identical to the
// per-update path: every cell receives the same exact int64 and commutative
// mod-p sums, regrouped. Consumers stacking several banks over one stream
// (forest sketch rounds, k-EDGECONNECT banks) should build the plan once
// with ReplayPlanned and ApplyPlan it per bank instead.
func (a *Arena) UpdateEdges(ups []stream.Update) {
	ReplayPlanned(ups, a.slots, &a.plan, a.ApplyPlan)
}

// UpdateAll adds delta at index to every slot of the bank (the subgraph
// sketch feeds each coordinate update to all of its samplers). In shared
// mode the fingerprint term and levels are computed once.
func (a *Arena) UpdateAll(index uint64, delta int64) {
	if delta == 0 {
		return
	}
	a.own()
	a.markAllSlots()
	if a.shared {
		term := onesparse.FingerprintTermTab(a.pow[0], index, delta)
		is := int64(index) * delta
		var m cellMul
		for r := 0; r < a.reps; r++ {
			l := a.mix[r].Level(index)
			if l >= a.levels {
				l = a.levels - 1
			}
			for slot := 0; slot < a.slots; slot++ {
				a.applyCell(a.cellBase(slot, r)+l, delta, is, term)
			}
			m.addLevel(a.dk, r*a.levels+l)
		}
		for slot := 0; slot < a.slots; slot++ {
			a.dig = a.dig.Add(a.writeDigest(slot, delta, is, term, m))
		}
		return
	}
	for slot := 0; slot < a.slots; slot++ {
		a.Update(slot, index, delta)
	}
}

// mustMatch panics unless other has the identical shape and seeding. The
// messages name the mismatching dimension — the same convention l0 and
// sparserec use, pinned by the cross-package incompatible-merge test.
func (a *Arena) mustMatch(other *Arena) {
	switch {
	case a.slots != other.slots:
		panic("sketchcore: incompatible merge: slots mismatch")
	case a.reps != other.reps:
		panic("sketchcore: incompatible merge: reps mismatch")
	case a.levels != other.levels:
		panic("sketchcore: incompatible merge: levels mismatch")
	case a.universe != other.universe:
		panic("sketchcore: incompatible merge: universe mismatch")
	case a.shared != other.shared:
		panic("sketchcore: incompatible merge: seeding mode mismatch")
	}
	if a.shared {
		if a.seed != other.seed {
			panic("sketchcore: incompatible merge: seed mismatch")
		}
		return
	}
	for i := range a.z {
		if a.z[i] != other.z[i] {
			panic("sketchcore: incompatible merge: slot seeds mismatch")
		}
	}
}

// Add merges other into a (vector addition per slot): the
// distributed-streams operation of Sec. 1.1, behind every sketch's Add that
// folds one site's sketch into another's. The pass streams the cell arrays
// linearly, skipping only 64-slot spans whose source occupancy word is
// empty: a site that saw its share of a stream over the same vertices
// touches most of them, so word granularity keeps the merge kernel
// branch-free where the cells are; the per-slot dispatch that pays off on
// genuinely sparse sources lives in MergeMany.
func (a *Arena) Add(other *Arena) {
	a.mustMatch(other)
	a.own()
	rowCells := a.reps * a.levels
	span := 64 * rowCells
	for wi, w := range other.occ {
		if w == 0 {
			continue
		}
		a.occ[wi] |= w
		b := wi * span
		e := b + span
		if e > len(a.cells) {
			e = len(a.cells)
		}
		addInto(a.cells[b:e], other.cells[b:e])
	}
	a.dig = a.dig.Add(other.dig)
}

// AddRange merges the slot range [lo, hi) of other into the same slots of
// a. Shapes must match as in Add.
func (a *Arena) AddRange(other *Arena, lo, hi int) {
	a.mustMatch(other)
	if lo < 0 || hi > a.slots || lo > hi {
		panic("sketchcore: AddRange slot range out of bounds")
	}
	a.own()
	for slot := lo; slot < hi; slot++ {
		if other.SlotOccupied(slot) {
			a.markSlot(slot)
		}
	}
	cells := a.reps * a.levels
	b, e := lo*cells, hi*cells
	addInto(a.cells[b:e], other.cells[b:e])
	if a.shared {
		a.dig = a.dig.Add(other.scanRows(lo, hi))
	}
}

// addInto is the shared merge kernel: dst.w += src.w, dst.s += src.s,
// dst.f += src.f mod p, cell by cell.
func addInto(dst, src []acell) {
	for i := range dst {
		d, s := &dst[i], &src[i]
		d.w += s.w
		d.s += s.s
		d.f = hashing.AddMod61(d.f, s.f)
	}
}

// Clone returns a copy of the bank in O(1) of its cells: clone and source
// share the cell state copy-on-write, and whichever is written first takes
// its own copy (own), so mutating the clone never perturbs the original or
// the other way round. Hash state (mixers, power tables) is immutable and
// shared; the per-slot table index (which builds tables lazily) and plan
// scratch are unshared so clone and original can update independently.
//
// Clone writes a: it marks a's cells shared. Like the write methods, it must
// not run concurrently with other calls on a, except on an a that is already
// marked (a clone not written since), which Clone only reads.
func (a *Arena) Clone() *Arena {
	if !a.cow {
		a.cow = true
	}
	c := *a
	if !a.shared {
		c.pow = append([]*hashing.PowTable(nil), a.pow...)
	}
	c.plan = nil
	c.batch = planScratch{}
	return &c
}

// Equal reports whether two arenas have identical shape, seeding,
// occupancy bitmap and bit-identical cell state. It is the ground truth for
// the parallel-ingest and merge tests: Sample, Reset, ResetSlots and the
// compact encoding all read the occupancy, so two arenas that differ only
// there are not interchangeable.
func (a *Arena) Equal(other *Arena) bool {
	if a.slots != other.slots || a.reps != other.reps || a.levels != other.levels ||
		a.universe != other.universe || a.shared != other.shared || a.seed != other.seed {
		return false
	}
	for i := range a.z {
		if a.z[i] != other.z[i] {
			return false
		}
	}
	return slices.Equal(a.occ, other.occ) && slices.Equal(a.cells, other.cells)
}

// sampleCells scans one slot's exact-level cells (any provenance) for a
// decodable repetition: per rep, a running suffix sum reconstructs the
// nested value N(j) from the most subsampled level down, and the first
// non-zero N(j) decides (nested level sets). tab, when non-nil, serves the
// decode's z^idx power in O(1); a nil tab (a never-updated per-slot slot,
// whose cells are necessarily all zero) falls back to the loop on z.
func sampleCells(cells []acell, reps, levels int, z uint64, tab *hashing.PowTable) (index uint64, weight int64, ok bool) {
	for r := 0; r < reps; r++ {
		base := r * levels
		var w, s int64
		var f uint64
		for j := levels - 1; j >= 0; j-- {
			c := &cells[base+j]
			w += c.w
			s += c.s
			f = hashing.AddMod61(f, c.f)
			if w == 0 && s == 0 && f == 0 {
				continue
			}
			var idx uint64
			var wt int64
			var decOK bool
			if tab != nil {
				idx, wt, decOK = onesparse.DecodeStateTab(w, s, f, tab)
			} else {
				idx, wt, decOK = onesparse.DecodeState(w, s, f, z)
			}
			if decOK {
				return idx, wt, true
			}
			break // >=2 survivors here, so >=2 at every lower level too
		}
	}
	return 0, 0, false
}

// Sample draws a near-uniform element of the support of slot's vector, or
// ok=false if the slot is empty or every repetition fails. Slots the
// occupancy bitmap never saw state for answer immediately (their cells are
// provably zero) — the fast path for decode loops draining sparse banks,
// bit-identical since sampleCells on an all-zero row also fails.
func (a *Arena) Sample(slot int) (index uint64, weight int64, ok bool) {
	if !a.SlotOccupied(slot) {
		return 0, 0, false
	}
	b := a.cellBase(slot, 0)
	e := b + a.reps*a.levels
	var tab *hashing.PowTable
	if !a.deferTables {
		tab = a.peekPow(slot)
		if tab == nil && !a.IsZero(slot) {
			// Per-slot slot populated by merge or wire decode rather than
			// local updates: build its table now so decoding stays O(1) per
			// candidate.
			tab = a.powOf(slot)
		}
	}
	return sampleCells(a.cells[b:e], a.reps, a.levels, a.zOf(slot), tab)
}

// IsZero reports whether slot's vector is (w.h.p.) zero, witnessed by the
// whole-row sum (the nested level-0 value) of every repetition. Slots the
// occupancy bitmap never saw state for answer without touching cells.
func (a *Arena) IsZero(slot int) bool {
	if !a.SlotOccupied(slot) {
		return true
	}
	for r := 0; r < a.reps; r++ {
		base := a.cellBase(slot, r)
		var w, s int64
		var f uint64
		for j := 0; j < a.levels; j++ {
			c := &a.cells[base+j]
			w += c.w
			s += c.s
			f = hashing.AddMod61(f, c.f)
		}
		if w != 0 || s != 0 || f != 0 {
			return false
		}
	}
	return true
}

// TotalWeight returns sum_i x_i of slot's vector (exact: the whole-row
// weight sum of the first repetition).
func (a *Arena) TotalWeight(slot int) int64 {
	base := a.cellBase(slot, 0)
	var w int64
	for j := 0; j < a.levels; j++ {
		w += a.cells[base+j].w
	}
	return w
}

// Words returns the memory footprint in 64-bit words: three words per cell
// (the bank-shared fingerprint bases and mixers are counted once, not per
// cell — one of the arena's space wins over per-object samplers), plus the
// built power tables.
func (a *Arena) Words() int {
	w := 3*len(a.cells) + len(a.z) + len(a.mix) + len(a.occ)
	for _, t := range a.pow {
		if t != nil {
			w += t.Words()
		}
	}
	return w
}
