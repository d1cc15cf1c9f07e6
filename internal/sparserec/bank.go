package sparserec

import (
	"math/bits"

	"graphsketch/internal/hashing"
	"graphsketch/internal/onesparse"
	"graphsketch/internal/stream"
)

// Bank is a flat struct-of-arrays bank of n k-RECOVERY sketches sharing one
// (k, seed) — the per-(node, level) sketches of Fig 3 for a single level,
// which must share hashes so that summing nodes over a cut side is
// meaningful (step 4c). The cell aggregates live interleaved in one flat
// array indexed by (node, row, bucket), mirroring internal/sketchcore's
// sampler arenas: updates touch contiguous memory, merges are one linear
// pass, and a
// cut-side decode accumulates into one reusable scratch sketch instead of
// cloning and Add-ing per-node objects.
//
// A Bank node is bit-compatible with Sketch: node i after a set of updates
// holds exactly the cells of New(k, seed) after the same updates.
type Bank struct {
	n     int
	k     int
	rows  int
	m     int
	seed  uint64
	hash  []hashing.PolyHash
	z     uint64
	pow   *hashing.PowTable // z^index table, sized to the n^2 edge universe
	batch bankScratch       // UpdateEdges per-chunk staging, reused across calls
	cells []bcell           // (node*rows + row)*m + bucket
	// occ is the node-occupancy bitmap, mirroring sketchcore.Arena's: bit
	// set => the node's cells may be non-zero, clear => they are all zero.
	// A monotone over-approximation maintained by every state-writing path
	// and consulted by merges and space accounting.
	occ []uint64
}

// bcell is one bucket cell's aggregates, interleaved for the same
// cache-line economy as sketchcore's arena cells.
type bcell struct {
	w int64  // weight sum
	s int64  // index-weighted sum
	f uint64 // fingerprint
}

// bankScratch stages one chunk of a batched edge update (see
// Bank.UpdateEdges): canonical endpoints, edge index, the raw z^idx powers
// the interleaved PowBatch kernel produces, the fingerprint term pair
// derived from them, signed delta and index-weighted delta, and the per-row
// bucket indices the BoundedBatch kernel fills.
type bankScratch struct {
	u, v      []int32
	idx       []uint64
	pow       []uint64
	term, neg []uint64
	delta, is []int64
	bkt       []uint32
}

// NewBank creates a bank of n sketches, each recovering up to k non-zeros
// w.h.p., all built from the same seed (mutually mergeable).
func NewBank(n, k int, seed uint64) *Bank {
	if k < 1 {
		k = 1
	}
	rows, m := tableShape(k)
	b := &Bank{n: n, k: k, rows: rows, m: m, seed: seed}
	b.hash = make([]hashing.PolyHash, b.rows)
	for r := 0; r < b.rows; r++ {
		b.hash[r] = hashing.NewPolyHash(rowHashSeed(seed, r), 4)
	}
	b.z = onesparse.FingerprintBase(fingerprintSeed(seed))
	b.pow = hashing.NewPowTableMax(b.z, uint64(n)*uint64(n))
	b.cells = make([]bcell, n*b.rows*b.m)
	b.occ = make([]uint64, (n+63)/64)
	return b
}

// markNode records that node may now hold non-zero cells.
func (b *Bank) markNode(node int) {
	b.occ[node>>6] |= 1 << (uint(node) & 63)
}

// NodeOccupied reports whether node may hold non-zero cells; false
// guarantees its cells are all zero.
func (b *Bank) NodeOccupied(node int) bool {
	return b.occ[node>>6]&(1<<(uint(node)&63)) != 0
}

// Reset zeroes the bank's cell state, touching only occupied node rows.
func (b *Bank) Reset() {
	rowCells := b.rows * b.m
	for wi, w := range b.occ {
		for w != 0 {
			node := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			base := node * rowCells
			row := b.cells[base : base+rowCells]
			for i := range row {
				row[i] = bcell{}
			}
		}
		b.occ[wi] = 0
	}
}

// N returns the number of node sketches in the bank.
func (b *Bank) N() int { return b.n }

// K returns the per-node sparsity budget.
func (b *Bank) K() int { return b.k }

// Update adds delta to coordinate index of one node's sketch. The row
// buckets are evaluated together with the interleaved BoundedRows kernel.
func (b *Bank) Update(node int, index uint64, delta int64) {
	if delta == 0 {
		return
	}
	b.markNode(node)
	term := onesparse.FingerprintTermTab(b.pow, index, delta)
	is := int64(index) * delta
	bkts := rowBuckets(b.hash, index, uint64(b.m))
	for r := 0; r < b.rows; r++ {
		c := &b.cells[(node*b.rows+r)*b.m+int(bkts[r])]
		c.w += delta
		c.s += is
		c.f = hashing.AddMod61(c.f, term)
	}
}

// UpdateEdge applies the incidence convention of Eq. 1: +delta at index in
// node u's sketch, -delta in node v's. Bucket hashes and the fingerprint
// power are computed once and reused for both endpoints.
func (b *Bank) UpdateEdge(u, v int, index uint64, delta int64) {
	if delta == 0 {
		return
	}
	b.markNode(u)
	b.markNode(v)
	term := onesparse.FingerprintTermTab(b.pow, index, delta)
	negTerm := onesparse.NegateMod61(term)
	is := int64(index) * delta
	bkts := rowBuckets(b.hash, index, uint64(b.m))
	for r := 0; r < b.rows; r++ {
		bkt := int(bkts[r])
		cu := &b.cells[(u*b.rows+r)*b.m+bkt]
		cv := &b.cells[(v*b.rows+r)*b.m+bkt]
		cu.w += delta
		cu.s += is
		cu.f = hashing.AddMod61(cu.f, term)
		cv.w -= delta
		cv.s -= is
		cv.f = hashing.AddMod61(cv.f, negTerm)
	}
}

// bankChunk bounds the UpdateEdges staging arrays (see the arena kernel's
// updateEdgesChunk — same reasoning).
const bankChunk = 256

// UpdateEdges applies a batch of node-incidence edge updates: for each
// update, +delta at EdgeIndex(u, v, n) in the lower endpoint's sketch and
// -delta in the higher's. It stages the per-edge invariants for a chunk —
// fingerprint powers through the interleaved PowBatch kernel, term pairs
// expanded from them — then sweeps the hash rows row-major across the
// chunk, each row's buckets batch-evaluated with the four-lane BoundedBatch
// kernel so no dependent Horner chain survives into the cell-write loop.
// Bit-identical to per-update UpdateEdge calls.
func (b *Bank) UpdateEdges(ups []stream.Update) {
	n := uint64(b.n)
	sc := &b.batch
	if sc.idx == nil {
		sc.u = make([]int32, bankChunk)
		sc.v = make([]int32, bankChunk)
		sc.idx = make([]uint64, bankChunk)
		sc.pow = make([]uint64, bankChunk)
		sc.term = make([]uint64, bankChunk)
		sc.neg = make([]uint64, bankChunk)
		sc.delta = make([]int64, bankChunk)
		sc.is = make([]int64, bankChunk)
		sc.bkt = make([]uint32, bankChunk)
	}
	for len(ups) > 0 {
		chunk := ups
		if len(chunk) > bankChunk {
			chunk = chunk[:bankChunk]
		}
		ups = ups[len(chunk):]
		m := 0
		for _, up := range chunk {
			if up.U == up.V || up.Delta == 0 {
				continue
			}
			u, v := up.U, up.V
			if u > v {
				u, v = v, u
			}
			idx := uint64(u)*n + uint64(v)
			b.markNode(u)
			b.markNode(v)
			sc.u[m], sc.v[m] = int32(u), int32(v)
			sc.idx[m] = idx
			sc.delta[m] = up.Delta
			sc.is[m] = int64(idx) * up.Delta
			m++
		}
		su, sv := sc.u[:m], sc.v[:m]
		sidx, sterm, sneg := sc.idx[:m], sc.term[:m], sc.neg[:m]
		sdelta, sis := sc.delta[:m], sc.is[:m]
		spow, sbkt := sc.pow[:m], sc.bkt[:m]
		b.pow.PowBatch(sidx, spow)
		for e, zp := range spow {
			var t uint64
			switch sdelta[e] {
			case 1:
				t = zp
			case -1:
				t = onesparse.NegateMod61(zp)
			default:
				t = onesparse.FingerprintTermTab(b.pow, sidx[e], sdelta[e])
			}
			sterm[e] = t
			sneg[e] = onesparse.NegateMod61(t)
		}
		for r := 0; r < b.rows; r++ {
			b.hash[r].BoundedBatch(sidx, uint64(b.m), sbkt)
			for e := range sidx {
				bkt := int(sbkt[e])
				cu := &b.cells[(int(su[e])*b.rows+r)*b.m+bkt]
				cv := &b.cells[(int(sv[e])*b.rows+r)*b.m+bkt]
				cu.w += sdelta[e]
				cu.s += sis[e]
				cu.f = hashing.AddMod61(cu.f, sterm[e])
				cv.w -= sdelta[e]
				cv.s -= sis[e]
				cv.f = hashing.AddMod61(cv.f, sneg[e])
			}
		}
	}
}

// mustMatchBank panics unless other has identical parameters, naming the
// mismatching dimension (the shared incompatible-merge convention).
func (b *Bank) mustMatchBank(other *Bank) {
	switch {
	case b.n != other.n:
		panic("sparserec: incompatible merge: n mismatch")
	case b.k != other.k:
		panic("sparserec: incompatible merge: k mismatch")
	case b.seed != other.seed:
		panic("sparserec: incompatible merge: seed mismatch")
	}
}

// Add merges another bank built with identical (n, k, seed), skipping
// 64-node spans whose source occupancy word is empty (same word-granular
// policy as Arena.Add; MergeMany does the per-node sparse dispatch).
func (b *Bank) Add(other *Bank) {
	b.mustMatchBank(other)
	rowCells := b.rows * b.m
	span := 64 * rowCells
	for wi, w := range other.occ {
		if w == 0 {
			continue
		}
		b.occ[wi] |= w
		lo := wi * span
		hi := lo + span
		if hi > len(b.cells) {
			hi = len(b.cells)
		}
		for i := lo; i < hi; i++ {
			d, s := &b.cells[i], &other.cells[i]
			d.w += s.w
			d.s += s.s
			d.f = hashing.AddMod61(d.f, s.f)
		}
	}
}

// MergeMany folds k source banks in one occupancy-guided pass (see
// Arena.MergeMany — same coordinator-aggregation rationale): each occupied
// node row is visited once, folding every source that holds state for it
// while the destination row is hot. Bit-identical to sequential pairwise
// Add calls (commutative exact sums per cell).
func (b *Bank) MergeMany(others []*Bank) {
	for _, o := range others {
		b.mustMatchBank(o)
	}
	rowCells := b.rows * b.m
	for wi := range b.occ {
		var w uint64
		for _, o := range others {
			w |= o.occ[wi]
		}
		if w == 0 {
			continue
		}
		b.occ[wi] |= w
		for w != 0 {
			bit := uint(bits.TrailingZeros64(w))
			w &= w - 1
			node := wi<<6 + int(bit)
			base := node * rowCells
			mask := uint64(1) << bit
			for _, o := range others {
				if o.occ[wi]&mask == 0 {
					continue
				}
				for i := base; i < base+rowCells; i++ {
					d, s := &b.cells[i], &o.cells[i]
					d.w += s.w
					d.s += s.s
					d.f = hashing.AddMod61(d.f, s.f)
				}
			}
		}
	}
}

// Equal reports parameter and bit-identical cell-state equality.
func (b *Bank) Equal(other *Bank) bool {
	if b.n != other.n || b.k != other.k || b.seed != other.seed {
		return false
	}
	for i := range b.cells {
		if b.cells[i] != other.cells[i] {
			return false
		}
	}
	return true
}

// NewScratch returns a Sketch shaped for DecodeSide's scratch parameter,
// sharing the bank's power table (same fingerprint base) instead of
// rebuilding a full-width one per scratch.
func (b *Bank) NewScratch() *Sketch { return newWithTab(b.k, b.seed, b.pow) }

// DecodeSide sums the bank's node sketches over side (side[node] == true)
// into scratch and attempts exact recovery of the summed vector — Fig 3
// step 4c without any per-node clones. scratch must come from NewScratch
// (or New with the bank's k and seed, so the peeling hashes match); its
// prior contents are discarded.
func (b *Bank) DecodeSide(side []bool, scratch *Sketch) ([]Item, bool) {
	if scratch.k != b.k || scratch.seed != b.seed || scratch.rows != b.rows || scratch.m != b.m {
		panic("sparserec: scratch sketch incompatible with bank")
	}
	for r := 0; r < scratch.rows; r++ {
		row := scratch.cells[r]
		for i := range row {
			row[i].Reset()
		}
	}
	for node, in := range side {
		if !in || !b.NodeOccupied(node) {
			continue // unmarked node: all-zero cells, adding them is a no-op
		}
		base := node * b.rows * b.m
		for r := 0; r < scratch.rows; r++ {
			row := scratch.cells[r]
			off := base + r*b.m
			for i := range row {
				c := &b.cells[off+i]
				row[i].AddState(c.w, c.s, c.f)
			}
		}
	}
	return scratch.decodeDestructive()
}

// Words returns the memory footprint in 64-bit words: three words per cell
// plus the bank-shared fingerprint base and its power table.
func (b *Bank) Words() int {
	return 3*len(b.cells) + 1 + b.pow.Words() + len(b.occ)
}
