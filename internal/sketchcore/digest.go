package sketchcore

import (
	"math/bits"
	"sync"

	"graphsketch/internal/hashing"
)

// Digest is the linear fingerprint of a shared-seed arena's cell state:
//
//	W = sum_c (w_c * R_c + s_c * R'_c)  mod 2^64
//	F = sum_c  f_c * Q_c                mod 2^61-1
//
// Each part lives in the ring its cell field lives in. The int64 counts
// wrap mod 2^64, so a W maintained through wrapping adds still equals the
// W computed from the wrapped cells; fingerprints are GF(2^61-1) elements,
// so F is too. Both parts are linear in the cells, which is what lets every
// write path move the digest by what it adds instead of re-reading the
// state: the digest of a sum of states is the sum of their digests.
//
// The multipliers are product-form, R_c = rho * alpha[slot] * beta[j],
// R'_c = kappa * R_c and Q_c = rhoF * gamma[slot] * delta[j] with j =
// rep*levels + level. alpha, beta and the constant kappa are odd, so a
// change to either count of one cell always moves W; the F multipliers
// are nonzero (delta is drawn below 2^56 so a row's rep sum needs no
// reduction); rho and rhoF derive from the arena's seed. Tying R' to R
// lets a write's two counts enter W as one value, w + kappa*s. The
// per-slot and per-cell tables depend only on the arena's shape; the seed,
// which the owning sketch derives from its config seed and the arena's
// position, makes the digest canonical for (config, position): two
// replicas with one config agree on it cell for cell.
type Digest struct {
	W uint64
	F uint64
}

// Add returns d + e, each part in its own ring.
func (d Digest) Add(e Digest) Digest {
	return Digest{W: d.W + e.W, F: hashing.AddMod61(d.F, e.F)}
}

// Sub returns d - e, each part in its own ring.
func (d Digest) Sub(e Digest) Digest {
	return Digest{W: d.W - e.W, F: hashing.SubMod61(d.F, e.F)}
}

// Fold condenses the two parts into one 64-bit leaf. A change to either
// part alone always changes the fold (W enters by XOR, F through a
// bijection); a change to both collides with probability ~2^-64.
func (d Digest) Fold() uint64 { return d.W ^ hashing.Mix64(d.F+0x5bd1e9955bd1e995) }

// SumDigests returns the sum of the arenas' maintained digests: a bank's
// digest, in O(arenas) whatever its state.
func SumDigests(arenas []*Arena) Digest {
	var d Digest
	for _, a := range arenas {
		d = d.Add(a.Digest())
	}
	return d
}

// ScanDigests returns the sum of the arenas' digests computed from their
// cells (Arena.ScanDigest).
func ScanDigests(arenas []*Arena) Digest {
	var d Digest
	for _, a := range arenas {
		d = d.Add(a.ScanDigest())
	}
	return d
}

// WithoutDigest runs write, which mutates the arenas' cells, and then puts
// back the digests they maintained before it: the cells move, the digests
// do not. It exists for one purpose, modelling silent memory rot in the
// integrity tests; no production path may use it.
func WithoutDigest(arenas []*Arena, write func() error) error {
	saved := make([]Digest, len(arenas))
	for i, a := range arenas {
		saved[i] = a.dig
	}
	err := write()
	for i, a := range arenas {
		a.dig = saved[i]
	}
	return err
}

// slotMul is one slot's digest multipliers: alpha (odd) for W, gamma for F.
type slotMul struct{ w, f uint64 }

// cellMul is one (rep, level) position's multipliers: beta (odd) for the
// counts, delta (in [1, 2^56)) for the fingerprint. As a rep sum (addLevel)
// it holds the sums, f unreduced.
type cellMul struct{ w, f uint64 }

// digestKappa weighs a cell's s count against its w count in W.
const digestKappa = 0x9e3779b97f4a7c15

// counts folds a cell's (or a write's) two counts into W's one value.
func counts(w, s int64) uint64 { return uint64(w) + digestKappa*uint64(s) }

// digestKey holds the shape-dependent multiplier tables. They are immutable
// and shared by every arena of one shape.
type digestKey struct {
	slot []slotMul
	cell []cellMul // [rep*levels + level]
	// pair[q] sums the cell multipliers of reps 2q and 2q+1 over every pair
	// of their levels, [l*levels + l']: the kernel's per-edge rep sum then
	// takes reps/2 lookups instead of reps.
	pair [][]cellMul
}

// digestKeys caches one digestKey per (slots, reps, levels) shape, and
// slotTables one slot table per slot count (EdgePlan reads it too).
var digestKeys, slotTables sync.Map

// The shape tables are fixed by two constants (the slot table's and the
// cell table's); arenas differ by their rho.
const (
	digestSlotSeed = 0x6a09e667f3bcc908
	digestCellSeed = 0xbb67ae8584caa73b
)

// digestKeyFor returns the shared tables for the given shape.
func digestKeyFor(slots, reps, levels int) *digestKey {
	shape := [3]int{slots, reps, levels}
	if k, ok := digestKeys.Load(shape); ok {
		return k.(*digestKey)
	}
	k := &digestKey{slot: slotTable(slots), cell: make([]cellMul, reps*levels)}
	for j := range k.cell {
		k.cell[j] = cellMul{
			w: hashing.DeriveSeed(digestCellSeed, uint64(2*j)) | 1,
			f: hashing.DeriveSeed(digestCellSeed, uint64(2*j+1))>>8 | 1,
		}
	}
	for r := 0; r+1 < reps; r += 2 {
		pt := make([]cellMul, levels*levels)
		for l := 0; l < levels; l++ {
			for l2 := 0; l2 < levels; l2++ {
				m := k.cell[r*levels+l]
				m.addLevel(k, (r+1)*levels+l2)
				pt[l*levels+l2] = m
			}
		}
		k.pair = append(k.pair, pt)
	}
	actual, _ := digestKeys.LoadOrStore(shape, k)
	return actual.(*digestKey)
}

// slotTable returns the shared per-slot multipliers for the given slot
// count.
func slotTable(slots int) []slotMul {
	if t, ok := slotTables.Load(slots); ok {
		return t.([]slotMul)
	}
	t := make([]slotMul, slots)
	for i := range t {
		t[i] = slotMul{
			w: hashing.DeriveSeed(digestSlotSeed, uint64(2*i)) | 1,
			f: fieldMul(hashing.DeriveSeed(digestSlotSeed, uint64(2*i+1))),
		}
	}
	actual, _ := slotTables.LoadOrStore(slots, t)
	return actual.([]slotMul)
}

// fieldMul maps a hash to a nonzero GF(2^61-1) multiplier.
func fieldMul(h uint64) uint64 {
	if m := reduce61(h >> 3); m != 0 {
		return m
	}
	return 1
}

// reduce61 returns x mod 2^61-1 for any x. Stored fingerprints are always
// reduced; a decoded one need not be, and the digest reads it mod p.
func reduce61(x uint64) uint64 {
	x = (x & hashing.MersennePrime61) + (x >> 61)
	if x >= hashing.MersennePrime61 {
		x -= hashing.MersennePrime61
	}
	return x
}

// initDigest sets up a shared-seed arena's digest: the shape tables and
// the seed-derived scalars.
func (a *Arena) initDigest() {
	if a.reps > 64 {
		panic("sketchcore: digests support at most 64 repetitions")
	}
	a.dk = digestKeyFor(a.slots, a.reps, a.levels)
	a.rhoW = hashing.DeriveSeed(a.seed, 0xd16e57) | 1
	a.rhoF = fieldMul(hashing.DeriveSeed(a.seed, 0xd16e58))
}

// Digest returns the maintained digest of the arena's cells in O(1).
// Shared-seed arenas only.
func (a *Arena) Digest() Digest {
	a.mustDigest()
	return a.scale(a.dig)
}

// ScanDigest computes the digest from the cells, one pass over the occupied
// rows, leaving the maintained digest alone. On an arena whose cells were
// only ever written through its own methods it equals Digest; the
// integrity scrubber compares the two.
func (a *Arena) ScanDigest() Digest {
	a.mustDigest()
	return a.scale(a.scanRows(0, a.slots))
}

// RescanDigest resets the maintained digest to ScanDigest, so the arena
// vouches for whatever its cells now hold.
func (a *Arena) RescanDigest() {
	a.mustDigest()
	a.dig = a.scanRows(0, a.slots)
}

func (a *Arena) mustDigest() {
	if !a.shared {
		panic("sketchcore: digests require a shared-seed arena")
	}
}

// scale applies the arena's scalars to an unscaled accumulator.
func (a *Arena) scale(d Digest) Digest {
	return Digest{W: a.rhoW * d.W, F: hashing.MulMod61(a.rhoF, d.F)}
}

// scanRows returns the unscaled digest of the occupied rows in [lo, hi).
func (a *Arena) scanRows(lo, hi int) Digest {
	rowCells := a.reps * a.levels
	var d Digest
	for slot := lo; slot < hi; slot++ {
		if !a.SlotOccupied(slot) {
			continue
		}
		var w, f uint64
		row := a.cells[slot*rowCells : (slot+1)*rowCells]
		for j := range row {
			c, m := &row[j], &a.dk.cell[j]
			w += counts(c.w, c.s) * m.w
			if c.f != 0 {
				f = hashing.AddMod61(f, hashing.MulMod61(reduce61(c.f), m.f))
			}
		}
		sm := &a.dk.slot[slot]
		d.W += sm.w * w
		d.F = hashing.AddMod61(d.F, hashing.MulMod61(f, sm.f))
	}
	return d
}

// writeDigest returns the unscaled digest of one slot row receiving
// (delta, is, term) at one level per rep, given the rep-summed cell
// multipliers of those levels.
func (a *Arena) writeDigest(slot int, delta, is int64, term uint64, m cellMul) Digest {
	sm := &a.dk.slot[slot]
	return Digest{
		W: sm.w * counts(delta, is) * m.w,
		F: hashing.MulMod61(hashing.MulMod61(term, reduce61(m.f)), sm.f),
	}
}

// edgeDigest is writeDigest for a node-incidence edge: +(delta, is, term)
// in uSlot's row and -(delta, is, term) in vSlot's, at the same levels.
func (a *Arena) edgeDigest(uSlot, vSlot int, delta, is int64, term uint64, m cellMul) Digest {
	su, sv := &a.dk.slot[uSlot], &a.dk.slot[vSlot]
	return Digest{
		W: (su.w - sv.w) * counts(delta, is) * m.w,
		F: hashing.MulMod61(hashing.MulMod61(term, reduce61(m.f)), hashing.SubMod61(su.f, sv.f)),
	}
}

// addLevel adds the multipliers of (rep, level) to a rep sum.
func (m *cellMul) addLevel(k *digestKey, j int) {
	c := &k.cell[j]
	m.w += c.w
	m.f += c.f
}

// planDigest returns the unscaled digest of everything ApplyPlan writes for
// p, charged per staged edge rather than per cell write: with product-form
// multipliers an edge's reps*2 writes collapse to its rep-summed level
// multipliers times the difference of its endpoints' slot multipliers —
// edgeDigest, rearranged for the kernel's hot loop. Everything but the
// levels and the fingerprint term is the same for every bank of the plan's
// slot count, so the plan stages it once per chunk (EdgePlan.digW, digG),
// and F accumulates lazily reduced 128-bit products.
func (a *Arena) planDigest(p *EdgePlan, termPair []uint64, lvl []byte) Digest {
	reps, levels := a.reps, a.levels
	cells, pairs := a.dk.cell, a.dk.pair
	digW := p.digW
	digG, terms := p.digG[:len(digW)], termPair[:2*len(digW)]
	lvl = lvl[:reps*len(digW)]
	var w, f, accHi, accLo uint64
	odd := reps&1 == 1
	for e, dw := range digW {
		var bw, bf uint64
		lv := lvl[e*reps : (e+1)*reps]
		for q, pt := range pairs {
			c := &pt[int(lv[2*q])*levels+int(lv[2*q+1])]
			bw += c.w
			bf += c.f
		}
		if odd {
			c := &cells[(reps-1)*levels+int(lv[reps-1])]
			bw += c.w
			bf += c.f
		}
		w += dw * bw
		// term * bf, folded once (2^64 = 8 and 2^61 = 1 mod p) but not
		// fully reduced: below 2^63 for bf < 2^62, i.e. up to 64 reps.
		xh, xl := bits.Mul64(terms[2*e], bf)
		x := xl&hashing.MersennePrime61 + (xh<<3 | xl>>61)
		hi, lo := bits.Mul64(x, digG[e])
		var c uint64
		accLo, c = bits.Add64(accLo, lo, 0)
		accHi += hi + c
		if accHi >= 1<<62 { // each product adds below 2^60 here: no overflow
			f = hashing.AddMod61(f, reduce128(accHi, accLo))
			accHi, accLo = 0, 0
		}
	}
	return Digest{W: w, F: hashing.AddMod61(f, reduce128(accHi, accLo))}
}

// reduce128 returns hi*2^64 + lo mod 2^61-1 (2^64 = 8 mod p).
func reduce128(hi, lo uint64) uint64 {
	return hashing.AddMod61(reduce61(lo), reduce61(reduce61(hi)<<3))
}

// cellDigester accumulates the unscaled digest of cells reported in
// ascending index order, the order every cell decoder reports them in:
// each row's partial sums are scaled by its slot multipliers once, when
// the next row starts.
type cellDigester struct {
	k        *digestKey
	rowCells int
	slot     int
	end      int // index one past the current row
	w, f     uint64
	sum      Digest
}

func (a *Arena) newCellDigester() cellDigester {
	return cellDigester{k: a.dk, rowCells: a.reps * a.levels}
}

func (c *cellDigester) add(i int, w, s int64, f uint64) {
	if i >= c.end {
		c.flush()
		c.slot = i / c.rowCells
		c.end = (c.slot + 1) * c.rowCells
	}
	m := &c.k.cell[i-c.end+c.rowCells]
	c.w += counts(w, s) * m.w
	c.f = hashing.AddMod61(c.f, hashing.MulMod61(reduce61(f), m.f))
}

// digest returns the accumulated sum, flushing the open row.
func (c *cellDigester) digest() Digest {
	c.flush()
	return c.sum
}

func (c *cellDigester) flush() {
	if c.end == 0 {
		return
	}
	sm := &c.k.slot[c.slot]
	c.sum.W += sm.w * c.w
	c.sum.F = hashing.AddMod61(c.sum.F, hashing.MulMod61(c.f, sm.f))
	c.w, c.f = 0, 0
}
