package sketchcore

import (
	"math/bits"

	"graphsketch/internal/hashing"
	"graphsketch/internal/onesparse"
	"graphsketch/internal/stream"
)

// planChunk is the number of edges staged per plan: large enough to
// amortize the chunk-loop overhead and give each slot tile a meaningful
// run of entries, small enough that the staging arrays (~90 bytes per edge
// across the edge and entry views, plus the per-bank term/level scratch)
// stay cache-resident while a chunk is replayed into a whole bank stack.
const planChunk = 4096

// planMaxTiles caps the tile count of the entry counting sort, so the
// per-chunk counter zeroing stays O(min(slots, planMaxTiles)) even for
// banks with very many slots.
const planMaxTiles = 4096

// EdgePlan is the staged form of one chunk of node-incidence edge updates.
// It carries two views of the chunk, both built once per chunk — the
// staging depends only on the updates, not on any bank's hashes — and
// replayed into any number of same-shape shared banks via Arena.ApplyPlan:
//
//   - an edge-major view (canonical endpoints, edge index, signed delta,
//     index-weighted delta, self-loops and zero deltas dropped), which the
//     per-bank phase-1 kernels consume to batch-evaluate fingerprint terms
//     and per-rep levels into dense scratch;
//   - an entry-major view for the cache-blocked phase-2 sweep: each edge
//     contributes one +entry (lower endpoint) and one -entry (higher),
//     counting-sorted by fixed-size slot tile (slot >> tileShift), with the
//     signed delta and index-weighted delta expanded in entry order so the
//     sweep reads them sequentially. The chunk's slot-occupancy words are
//     precomputed here too, so banks mark occupancy with a handful of word
//     ORs instead of two read-modify-writes per edge in the inner loop.
//
// Stacks of banks over one stream (a forest sketch's rounds, k-EDGECONNECT's
// k forests) pay the canonicalization and the sort once; each bank pays only
// its own hashing and cell writes.
type EdgePlan struct {
	slots     int
	tileShift uint
	u, v      []int32 // canonical endpoints, u < v
	idx       []uint64
	delta     []int64
	is        []int64 // idx * delta, hoisted for the cell s-aggregate
	// The edge's digest factors shared by every bank of the plan's slot
	// count (see Arena.planDigest): (alpha[u] - alpha[v]) * (delta +
	// kappa*is) mod 2^64 and gamma[u] - gamma[v] mod 2^61-1.
	digW, digG []uint64

	// Entry-major view: entry i updates slot entSlot[i] with the edge and
	// sign packed in entEdge[i] (edge<<1 | 1 for the negated endpoint), and
	// the pre-signed aggregates entDelta[i]/entIs[i]. Entries are grouped by
	// slot tile; within a tile they keep staging order.
	entSlot  []int32
	entEdge  []int32
	entDelta []int64
	entIs    []int64
	occ      []uint64 // slots touched by this chunk, as occupancy words
	counts   []int32  // counting-sort scratch, one per tile

	// Batch-coalescing scratch (see coalesce): the dense per-edge delta
	// accumulator (small universes), its first-touch order, the map fallback,
	// and the coalesced output buffer. Reused across ReplayPlanned calls.
	coDense   []int64
	coTouched []int32
	coMap     map[uint64]int64
	coIdx     []uint64
	coUps     []stream.Update
}

// coalesceMinBatch is the batch length below which planned replay skips the
// coalescing pass: a short batch has little room for duplicate edges, and
// the accumulator sweep would dominate the work it saves.
const coalesceMinBatch = 2 * planChunk

// coalesceMaxDense is the largest edge-index universe (slots^2) the
// coalescer accumulates in a dense int64 array (<= 2 MiB of reusable
// scratch). Larger universes fall back to a map keyed by edge index.
const coalesceMaxDense = 1 << 18

// coalesce collapses a batch of node-incidence updates to at most one
// update per distinct surviving edge: endpoints canonicalized, deltas
// summed, self-loops and edges whose multiplicity cancelled to zero
// dropped — stream.Coalesce's transformation, restated over a raw update
// slice with reusable scratch so the planned ingest path can afford it
// per batch.
//
// Replaying the coalesced batch leaves any linear sketch bit-identical to
// replaying the raw one (Definition 1 multiplicities are what every cell
// aggregate sums): w and s regroup as the same exact int64 additions, and
// the fingerprint regroups identically in GF(2^61-1) — a cancelled edge
// contributes t + (p-t) = 0 exactly. Churn-heavy dynamic streams collapse
// by their duplication factor before any bank pays hashing or cell writes.
// Output order is first-touch order (deterministic in the input); order is
// free anyway, since every aggregate is a commutative exact sum.
func (p *EdgePlan) coalesce(ups []stream.Update, slots int) []stream.Update {
	if uint64(slots)*uint64(slots) <= coalesceMaxDense {
		return p.coalesceDense(ups, slots)
	}
	return p.coalesceMap(ups, slots)
}

func (p *EdgePlan) coalesceDense(ups []stream.Update, slots int) []stream.Update {
	universe := slots * slots
	if cap(p.coDense) < universe {
		p.coDense = make([]int64, universe)
	}
	acc := p.coDense[:universe]
	touched := p.coTouched[:0]
	n := uint64(slots)
	for _, up := range ups {
		if up.U == up.V || up.Delta == 0 {
			continue
		}
		u, v := up.U, up.V
		if u > v {
			u, v = v, u
		}
		idx := uint64(u)*n + uint64(v)
		// An edge whose running sum returns to zero re-appends on its next
		// touch; the emit loop zeroes as it drains, so duplicates read a
		// zero (or already-emitted) slot and are skipped.
		if acc[idx] == 0 {
			touched = append(touched, int32(idx))
		}
		acc[idx] += up.Delta
	}
	out := p.coUps[:0]
	for _, t := range touched {
		d := acc[t]
		acc[t] = 0
		if d == 0 {
			continue
		}
		out = append(out, stream.Update{U: int(uint64(t) / n), V: int(uint64(t) % n), Delta: d})
	}
	p.coTouched = touched[:0]
	p.coUps = out
	return out
}

func (p *EdgePlan) coalesceMap(ups []stream.Update, slots int) []stream.Update {
	acc := p.coMap
	if acc == nil {
		acc = make(map[uint64]int64)
		p.coMap = acc
	}
	touched := p.coIdx[:0]
	n := uint64(slots)
	for _, up := range ups {
		if up.U == up.V || up.Delta == 0 {
			continue
		}
		u, v := up.U, up.V
		if u > v {
			u, v = v, u
		}
		idx := uint64(u)*n + uint64(v)
		if acc[idx] == 0 {
			touched = append(touched, idx)
		}
		acc[idx] += up.Delta
	}
	out := p.coUps[:0]
	for _, idx := range touched {
		d, ok := acc[idx]
		if !ok {
			continue // duplicate first-touch entry, already drained
		}
		delete(acc, idx)
		if d == 0 {
			continue
		}
		out = append(out, stream.Update{U: int(idx / n), V: int(idx % n), Delta: d})
	}
	p.coIdx = touched[:0]
	p.coUps = out
	return out
}

// defaultTileShift picks the staging tile width for a bank with the given
// slot count: per-slot grouping (shift 0) gives the replay sweep maximal
// cell-row reuse, so it is used whenever the tile counters stay small;
// banks with more slots than planMaxTiles coarsen the tile instead of
// growing the per-chunk counter pass.
func defaultTileShift(slots int) uint {
	shift := uint(0)
	for slots>>shift > planMaxTiles {
		shift++
	}
	return shift
}

// Build stages up to planChunk leading edges of ups for banks with the
// given slot count, returning the number of stream updates consumed
// (>= 1 whenever ups is non-empty, so chunking always makes progress).
// Entries are tiled at the default width; BuildTiled exposes the width for
// the blocked-replay property tests.
func (p *EdgePlan) Build(ups []stream.Update, slots int) int {
	return p.BuildTiled(ups, slots, defaultTileShift(slots))
}

// BuildTiled is Build with an explicit slot-tile width: phase-2 entries are
// grouped by slot >> tileShift. Any shift yields bit-identical bank state
// (cell aggregates are commutative exact sums, so entry order is free);
// the shift only moves the locality/sort-cost tradeoff.
func (p *EdgePlan) BuildTiled(ups []stream.Update, slots int, tileShift uint) int {
	p.slots = slots
	p.tileShift = tileShift
	if p.idx == nil {
		p.u = make([]int32, planChunk)
		p.v = make([]int32, planChunk)
		p.idx = make([]uint64, planChunk)
		p.delta = make([]int64, planChunk)
		p.is = make([]int64, planChunk)
		p.digW = make([]uint64, planChunk)
		p.digG = make([]uint64, planChunk)
		p.entSlot = make([]int32, 2*planChunk)
		p.entEdge = make([]int32, 2*planChunk)
		p.entDelta = make([]int64, 2*planChunk)
		p.entIs = make([]int64, 2*planChunk)
	}
	p.u = p.u[:planChunk]
	p.v = p.v[:planChunk]
	p.idx = p.idx[:planChunk]
	p.delta = p.delta[:planChunk]
	p.is = p.is[:planChunk]
	p.digW = p.digW[:planChunk]
	p.digG = p.digG[:planChunk]
	sm := slotTable(slots)
	n := uint64(slots)
	edges := 0
	consumed := 0
	for _, up := range ups {
		if edges == planChunk {
			break
		}
		consumed++
		if up.U == up.V || up.Delta == 0 {
			continue
		}
		u, v := up.U, up.V
		if u > v {
			u, v = v, u
		}
		idx := uint64(u)*n + uint64(v)
		p.u[edges] = int32(u)
		p.v[edges] = int32(v)
		p.idx[edges] = idx
		p.delta[edges] = up.Delta
		p.is[edges] = int64(idx) * up.Delta
		p.digW[edges] = (sm[u].w - sm[v].w) * counts(up.Delta, p.is[edges])
		p.digG[edges] = hashing.SubMod61(sm[u].f, sm[v].f)
		edges++
	}
	p.u = p.u[:edges]
	p.v = p.v[:edges]
	p.idx = p.idx[:edges]
	p.delta = p.delta[:edges]
	p.is = p.is[:edges]
	p.digW = p.digW[:edges]
	p.digG = p.digG[:edges]
	p.buildEntries()
	return consumed
}

// buildEntries counting-sorts the chunk's 2*edges endpoint entries by slot
// tile and precomputes the chunk's slot-occupancy words. The sort is
// stable, but stability is a debugging nicety, not a correctness need —
// every cell aggregate is a commutative exact sum.
func (p *EdgePlan) buildEntries() {
	edges := len(p.idx)
	tiles := ((p.slots - 1) >> p.tileShift) + 1
	if p.slots == 0 {
		tiles = 1
	}
	if cap(p.counts) < tiles+1 {
		p.counts = make([]int32, tiles+1)
	}
	counts := p.counts[:tiles+1]
	for i := range counts {
		counts[i] = 0
	}
	occWords := (p.slots + 63) / 64
	if cap(p.occ) < occWords {
		p.occ = make([]uint64, occWords)
	}
	p.occ = p.occ[:occWords]
	for i := range p.occ {
		p.occ[i] = 0
	}
	shift := p.tileShift
	for e := 0; e < edges; e++ {
		u, v := p.u[e], p.v[e]
		counts[uint(u)>>shift+1]++
		counts[uint(v)>>shift+1]++
		p.occ[u>>6] |= 1 << (uint(u) & 63)
		p.occ[v>>6] |= 1 << (uint(v) & 63)
	}
	for t := 1; t <= tiles; t++ {
		counts[t] += counts[t-1]
	}
	entSlot := p.entSlot[:2*edges]
	entEdge := p.entEdge[:2*edges]
	entDelta := p.entDelta[:2*edges]
	entIs := p.entIs[:2*edges]
	for e := 0; e < edges; e++ {
		u, v := p.u[e], p.v[e]
		d, is := p.delta[e], p.is[e]
		pu := counts[uint(u)>>shift]
		counts[uint(u)>>shift]++
		entSlot[pu] = u
		entEdge[pu] = int32(e) << 1
		entDelta[pu] = d
		entIs[pu] = is
		pv := counts[uint(v)>>shift]
		counts[uint(v)>>shift]++
		entSlot[pv] = v
		entEdge[pv] = int32(e)<<1 | 1
		entDelta[pv] = -d
		entIs[pv] = -is
	}
	p.entSlot = entSlot
	p.entEdge = entEdge
	p.entDelta = entDelta
	p.entIs = entIs
}

// Edges returns the number of staged edges.
func (p *EdgePlan) Edges() int { return len(p.idx) }

// planScratch is an arena's per-bank batch-evaluation scratch, reused
// across chunks and ApplyPlan calls: the fingerprint term of each staged
// edge and its negation interleaved as termPair[2e]/termPair[2e+1] (so the
// phase-2 sweep indexes it directly with the entry's packed edge<<1|sign),
// the raw z^idx powers the pair pass consumes, and the per-(edge, rep)
// level bytes. It grows with the chunks the arena is actually given
// (scratchEdges), because a bundle holds about 1,440 arenas and most batches
// stage far fewer than planChunk edges into any one of them.
type planScratch struct {
	pow      []uint64
	termPair []uint64
	lvl      []byte
}

// scratchEdges is the edge capacity planScratch grows to for a chunk of
// edges: the next power of two, so a run of growing batches reallocates a
// logarithmic number of times, capped at planChunk, the largest chunk.
func scratchEdges(edges int) int {
	return min(1<<bits.Len(uint(edges-1)), planChunk)
}

// ApplyPlan replays a staged plan into the bank in two phases, bit-identical
// to per-update UpdateEdge calls (commutative exact sums per cell):
//
// Phase 1 (edge-major, dense): the chunk's fingerprint terms are evaluated
// with the interleaved PowBatch kernel and expanded into +/- pairs, and
// each repetition's level hash runs over the staged indices with the
// four-lane LevelsBatch kernel — no per-edge hashing survives into the
// sweep.
//
// Phase 2 (entry-major, cache-blocked): the plan's tile-sorted endpoint
// entries are swept in order, so consecutive cell writes land in the same
// slot tile of the arena (and, within a tile run, the same slot rows stay
// cache-hot across all reps) instead of hopping between two random slots
// per edge. Occupancy marking is a per-chunk OR of the plan's precomputed
// words, hoisted out of the inner loop entirely.
//
// Requirements are those of UpdateEdges (shared-seed node-incidence bank
// with slots == plan slots).
func (a *Arena) ApplyPlan(p *EdgePlan) {
	if !a.shared {
		panic("sketchcore: ApplyPlan requires a shared-seed arena")
	}
	if a.slots != p.slots || a.universe != uint64(a.slots)*uint64(a.slots) {
		panic("sketchcore: ApplyPlan requires a node-incidence arena matching the plan")
	}
	edges := len(p.idx)
	if edges == 0 {
		return
	}
	reps, levels := a.reps, a.levels

	// Phase 1: batch-evaluate terms and levels into dense scratch.
	sc := &a.batch
	if cap(sc.pow) < edges {
		n := scratchEdges(edges)
		sc.pow = make([]uint64, n)
		sc.termPair = make([]uint64, 2*n)
	}
	if cap(sc.lvl) < edges*reps {
		sc.lvl = make([]byte, scratchEdges(edges)*reps)
	}
	pow := sc.pow[:edges]
	termPair := sc.termPair[:2*edges]
	lvl := sc.lvl[:edges*reps]
	a.pow[0].PowBatch(p.idx, pow)
	onesparse.TermPairs(pow, p.delta, termPair)
	for r := 0; r < reps; r++ {
		a.mix[r].LevelsBatch(p.idx, lvl[r:], reps, levels-1)
	}
	a.dig = a.dig.Add(a.planDigest(p, termPair, lvl))

	// Phase 2: tile-ordered sweep of the endpoint entries.
	a.own()
	for wi, w := range p.occ {
		if w != 0 {
			a.occ[wi] |= w
		}
	}
	cells := a.cells
	entSlot, entEdge := p.entSlot, p.entEdge
	entDelta, entIs := p.entDelta, p.entIs
	for i := range entSlot {
		k := entEdge[i]
		d, is, t := entDelta[i], entIs[i], termPair[k]
		base := int(entSlot[i]) * reps * levels
		lb := int(k>>1) * reps
		for r := 0; r < reps; r++ {
			c := &cells[base+int(lvl[lb+r])]
			c.w += d
			c.s += is
			c.f = hashing.AddMod61(c.f, t)
			base += levels
		}
	}
}

// applyPlanEdgeMajor is the retained unblocked replay: one pass over the
// staged edges, hashing and writing both endpoints per edge (the PR 2
// kernel). It is the reference path the blocked-replay property tests
// compare against at every tile width.
func (a *Arena) applyPlanEdgeMajor(p *EdgePlan) {
	if !a.shared {
		panic("sketchcore: ApplyPlan requires a shared-seed arena")
	}
	if a.slots != p.slots || a.universe != uint64(a.slots)*uint64(a.slots) {
		panic("sketchcore: ApplyPlan requires a node-incidence arena matching the plan")
	}
	edges := len(p.idx)
	if edges == 0 {
		return
	}
	a.own()
	tab := a.pow[0]
	mix := a.mix
	levels := a.levels
	rowCells := a.reps * levels
	su, sv, sidx := p.u, p.v, p.idx
	sdelta, sis := p.delta, p.is
	for e := 0; e < edges; e++ {
		idx := sidx[e]
		d, is := sdelta[e], sis[e]
		t := onesparse.FingerprintTermTab(tab, idx, d)
		ng := onesparse.NegateMod61(t)
		a.markSlot(int(su[e]))
		a.markSlot(int(sv[e]))
		bu := int(su[e]) * rowCells
		bv := int(sv[e]) * rowCells
		var m cellMul
		for r := 0; r < len(mix); r++ {
			l := mix[r].Level(idx)
			if l >= levels {
				l = levels - 1
			}
			a.applyCell(bu+l, d, is, t)
			a.applyCell(bv+l, -d, -is, ng)
			m.addLevel(a.dk, r*levels+l)
			bu += levels
			bv += levels
		}
		a.dig = a.dig.Add(a.edgeDigest(int(su[e]), int(sv[e]), d, is, t, m))
	}
}

// ReplayPlanned chunks a batch of updates through one reusable plan and
// hands each staged chunk to apply — the hoist for consumers that feed the
// same stream into several same-shape banks: the staging is paid once per
// chunk, every bank pays only its own hashing and cell writes. Batches long
// enough to plausibly carry duplicate edges are first coalesced to one
// update per surviving edge (bit-identical by linearity — see coalesce), so
// churn-heavy streams pay staging, hashing, and cell writes only per
// distinct edge. *plan may be nil; it is allocated on first use.
func ReplayPlanned(ups []stream.Update, slots int, plan **EdgePlan, apply func(*EdgePlan)) {
	if *plan == nil {
		*plan = &EdgePlan{}
	}
	p := *plan
	if len(ups) >= coalesceMinBatch {
		ups = p.coalesce(ups, slots)
	}
	for len(ups) > 0 {
		ups = ups[p.Build(ups, slots):]
		if p.Edges() > 0 {
			apply(p)
		}
	}
}
