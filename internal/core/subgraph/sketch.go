package subgraph

import (
	"graphsketch/internal/hashing"
	"graphsketch/internal/l0norm"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// Sketch is the Sec. 4 linear sketch of squash(X_G). It holds `samples`
// independent l0-samplers (each yields one uniform non-empty induced
// subgraph) banked in one per-slot-seeded arena, and one support-size
// estimator (the denominator of gamma_H and the bridge from fractions to
// absolute counts).
//
// Space is O(samples * log C(n,k)) words = O~(eps^-2) for
// samples = 1/eps^2, matching Theorem 4.1.
type Sketch struct {
	n, k     int
	samples  int
	seed     uint64
	ps       *PatternSpace
	binom    [][]int64
	samplers *sketchcore.Arena // one slot per sample; slots hash independently
	norm     *l0norm.Estimator

	// Decode cache: sampling each slot is read-only and deterministic, so
	// the decoded squash values are computed once and shared by every
	// pattern query instead of re-decoding the whole bank per pattern.
	decoded bool
	vals    []int64 // usable samples' decoded squash values
}

// samplerRepsSubgraph is the per-sampler repetition count: a failed sampler
// just reduces the effective sample size, so moderate reps suffice.
const samplerRepsSubgraph = 6

// New creates a sketch for order-k subgraphs (2 <= k <= 5) of graphs on n
// vertices, drawing the given number of samples (use ceil(1/eps^2) for an
// additive-eps estimate of gamma_H).
func New(n, k, samples int, seed uint64) *Sketch {
	if samples < 1 {
		samples = 1
	}
	s := &Sketch{n: n, k: k, samples: samples, seed: seed, ps: NewPatternSpace(k)}
	s.binom = binomialTable(n+1, k+1)
	universe := uint64(s.binom[n][k]) // C(n, k) columns
	if universe == 0 {
		universe = 1
	}
	slotSeeds := make([]uint64, samples)
	for i := range slotSeeds {
		slotSeeds[i] = hashing.DeriveSeed(seed, uint64(i)+1)
	}
	s.samplers = sketchcore.New(sketchcore.Config{
		Slots: samples, Universe: universe, Reps: samplerRepsSubgraph, SlotSeeds: slotSeeds,
	})
	s.norm = l0norm.New(universe, hashing.DeriveSeed(seed, 0x4077))
	return s
}

// binomialTable returns Pascal's triangle up to C(n-1, k-1).
func binomialTable(n, k int) [][]int64 {
	t := make([][]int64, n)
	for i := range t {
		t[i] = make([]int64, k)
		t[i][0] = 1
		for j := 1; j < k && j <= i; j++ {
			t[i][j] = t[i-1][j-1]
			if j <= i-1 {
				t[i][j] += t[i-1][j]
			}
		}
	}
	return t
}

// rank returns the colexicographic rank of a sorted k-subset: the column
// index of squash(X_G).
func (s *Sketch) rank(subset []int) uint64 {
	var r int64
	for i, v := range subset {
		r += s.binom[v][i+1]
	}
	return uint64(r)
}

// Update applies a signed multiplicity change to edge {u, v}: for every
// k-subset S containing both endpoints, coordinate S gains delta * 2^p
// where p is the pair's position within S (the squash encoding of Fig 4).
// Cost: C(n-2, k-2) coordinate updates per sampler.
func (s *Sketch) Update(u, v int, delta int64) {
	s.decoded = false
	s.columns(u, v, delta, func(col uint64, val int64) {
		s.samplers.UpdateAll(col, val)
		s.norm.Update(col, val)
	})
}

// columns calls fn(col, val) for every coordinate update of edge {u, v},
// one per k-subset containing both endpoints, in a fixed order.
func (s *Sketch) columns(u, v int, delta int64, fn func(col uint64, val int64)) {
	if u == v || delta == 0 {
		return
	}
	if u > v {
		u, v = v, u
	}
	rest := make([]int, 0, s.k-2)
	subset := make([]int, s.k)
	var rec func(start int)
	rec = func(start int) {
		if len(rest) == s.k-2 {
			fn(s.column(u, v, rest, subset, delta))
			return
		}
		for w := start; w < s.n; w++ {
			if w == u || w == v {
				continue
			}
			rest = append(rest, w)
			rec(w + 1)
			rest = rest[:len(rest)-1]
		}
	}
	rec(0)
}

// column returns the coordinate of the subset {u, v} ∪ rest and the value
// delta adds there.
func (s *Sketch) column(u, v int, rest, subset []int, delta int64) (uint64, int64) {
	// Merge {u,v} and rest (both sorted) into subset.
	i, j := 0, 0
	for idx := 0; idx < s.k; idx++ {
		switch {
		case i < 2 && (j >= len(rest) || pick(u, v, i) < rest[j]):
			subset[idx] = pick(u, v, i)
			i++
		default:
			subset[idx] = rest[j]
			j++
		}
	}
	// Locate u, v within the subset.
	var pu, pv int
	for idx, x := range subset {
		if x == u {
			pu = idx
		}
		if x == v {
			pv = idx
		}
	}
	return s.rank(subset), delta << uint(s.ps.PairPos(pu, pv))
}

func pick(u, v int, i int) int {
	if i == 0 {
		return u
	}
	return v
}

// UpdateBatch applies a batch of updates, fanned out across GOMAXPROCS
// goroutines (see updateBatch). Each update fans out to C(n-2, k-2)
// coordinate updates per sampler; that inner loop is the hot path, and its
// fingerprint terms come from the arena's lazily built per-slot power
// tables.
func (s *Sketch) UpdateBatch(ups []stream.Update) {
	s.updateBatch(ups, 0)
}

// updateBatch is UpdateBatch on an explicit worker setting (0 =
// GOMAXPROCS). The sampler arena splits into one slot range per worker,
// and the norm estimator is one more unit. Every unit walks all the
// updates' coordinates and writes only what it owns: the estimator, or its
// slots (sketchcore.Arena.UpdateMarked, which records occupancy in the
// range's own bitmap; Remark unions the bitmaps, and the occupancy from
// before, after the join). Each cell gets the updates a sequential replay
// gives it, in the same order, so the state is bit-identical for every
// worker count.
func (s *Sketch) updateBatch(ups []stream.Update, workers int) {
	s.decoded = false
	a := s.samplers
	ranges := min(sketchcore.Workers(workers), s.samples)
	// A range sets a bit of its bitmap on every update: pad the bitmaps to
	// a cache line so that ranges on different cores never share one.
	marks := make([][]uint64, ranges+1)
	for i := range marks {
		marks[i] = make([]uint64, max(a.MarkWords(), 8))
	}
	for slot := 0; slot < s.samples; slot++ {
		if a.SlotOccupied(slot) {
			marks[ranges][slot>>6] |= 1 << (uint(slot) & 63)
		}
	}
	a.Own()
	sketchcore.ForkJoin(ranges+1, workers, func(unit int) {
		if unit == ranges {
			for _, up := range ups {
				s.columns(up.U, up.V, up.Delta, s.norm.Update)
			}
			return
		}
		lo, hi := unit*s.samples/ranges, (unit+1)*s.samples/ranges
		for _, up := range ups {
			s.columns(up.U, up.V, up.Delta, func(col uint64, val int64) {
				for slot := lo; slot < hi; slot++ {
					a.UpdateMarked(marks[unit], slot, col, val)
				}
			})
		}
	})
	a.Remark(marks)
}

// Ingest replays a whole stream.
func (s *Sketch) Ingest(st *stream.Stream) {
	s.UpdateBatch(st.Updates)
}

// IngestParallel is Ingest with the given number of worker goroutines
// (workers <= 0 defaults to GOMAXPROCS); the state is bit-identical.
func (s *Sketch) IngestParallel(st *stream.Stream, workers int) {
	s.updateBatch(st.Updates, workers)
}

// Add merges another sketch (same n, k, samples, seed construction).
func (s *Sketch) Add(other *Sketch) {
	if s.n != other.n || s.k != other.k || s.samples != other.samples {
		panic("subgraph: merging incompatible sketches")
	}
	s.decoded = false
	s.samplers.Add(other.samplers)
	s.norm.Add(other.norm)
}

// Equal reports parameter and bit-identical sampler-cell equality; the norm
// estimator and the occupancy are not compared.
func (s *Sketch) Equal(other *Sketch) bool {
	return s.n == other.n && s.k == other.k && s.samples == other.samples &&
		s.seed == other.seed && s.samplers.Equal(other.samplers)
}

// decodeSamples draws every slot's sample once and caches the usable
// squash values. Decoding is read-only on the arena, so the cache stays
// valid until the sketch state changes.
func (s *Sketch) decodeSamples() {
	if s.decoded {
		return
	}
	s.vals = s.vals[:0]
	for i := 0; i < s.samples; i++ {
		if _, val, ok := s.samplers.Sample(i); ok {
			s.vals = append(s.vals, val)
		}
	}
	s.decoded = true
}

// GammaEstimate estimates gamma_H for the pattern bitmap (see the exported
// pattern constants). Returns the estimate and the number of samplers that
// produced a usable sample (the effective sample size). The bank is
// decoded once and the samples shared across pattern queries.
func (s *Sketch) GammaEstimate(pattern uint64) (gamma float64, effective int) {
	s.decodeSamples()
	target := s.ps.Canonical(pattern)
	match := 0
	for _, val := range s.vals {
		if val > 0 && uint64(val) < (1<<uint(s.ps.npairs)) && s.ps.Canonical(uint64(val)) == target {
			match++
		}
	}
	effective = len(s.vals)
	if effective == 0 {
		return 0, 0
	}
	return float64(match) / float64(effective), effective
}

// NonEmptyEstimate estimates the number of non-empty order-k induced
// subgraphs (the support size of squash(X_G)).
func (s *Sketch) NonEmptyEstimate() float64 {
	return s.norm.Estimate()
}

// CountEstimate estimates the absolute number of induced subgraphs
// isomorphic to the pattern: gamma_H * ||squash||_0.
func (s *Sketch) CountEstimate(pattern uint64) float64 {
	gamma, eff := s.GammaEstimate(pattern)
	if eff == 0 {
		return 0
	}
	return gamma * s.NonEmptyEstimate()
}

// Words returns the memory footprint in 64-bit words.
func (s *Sketch) Words() int {
	return s.norm.Words() + s.samplers.Words()
}

// PatternSpace exposes the sketch's pattern machinery (shared with census
// ground truth).
func (s *Sketch) PatternSpace() *PatternSpace { return s.ps }
