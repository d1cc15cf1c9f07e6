package sparsify

import (
	"math"

	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/sparserec"
	"graphsketch/internal/stream"
)

// Config parameterizes SPARSIFICATION (Fig 3).
type Config struct {
	// N is the number of vertices (required).
	N int
	// Epsilon is the target cut error.
	Epsilon float64
	// RecoveryK is the k-RECOVERY budget per (node, level) sketch,
	// k = O(eps^-2 log^2 n) in the paper. Derived from Epsilon when 0.
	RecoveryK int
	// RoughK overrides the K of the rough (1 +/- 1/2) Simple sparsifier.
	RoughK int
	// Levels is the number of subsampling levels (default log2(N)+3).
	Levels int
	// Seed makes the run reproducible.
	Seed uint64
}

func (c *Config) fill() {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.5
	}
	lg := 0
	for m := 1; m < c.N; m <<= 1 {
		lg++
	}
	if c.RecoveryK == 0 {
		k := int(4.0*float64(lg)/(c.Epsilon*c.Epsilon)) + 8
		c.RecoveryK = k
	}
	if c.Levels == 0 {
		c.Levels = lg + 3
	}
}

// roughConfig is the configuration of the rough (1 +/- 1/2) Simple
// sparsifier inside a Fig 3 sketch.
func (c Config) roughConfig() SimpleConfig {
	return SimpleConfig{
		N:       c.N,
		Epsilon: 0.5,
		K:       c.RoughK, // 0 => derived for eps=1/2
		Levels:  c.Levels,
		Seed:    hashing.DeriveSeed(c.Seed, 0xf0),
	}
}

// Sketch is the Fig 3 sketch: a rough sparsifier plus per-(node, level)
// sparse-recovery sketches of the incidence vectors x^{u,i} of Eq. 1,
// stored as one flat sparserec.Bank per level.
type Sketch struct {
	cfg      Config
	rough    *Simple
	levelMix hashing.Mixer
	nodeRec  []*sparserec.Bank // one bank of N node sketches per level
	lgN      float64
	sorter   sketchcore.BatchSorter // UpdateBatch level-sort scratch

	// Decode cache (see Simple): Sparsify is read-only and memoized.
	decoded  bool
	decGraph *graph.Graph
	decErr   error
}

// New creates a SPARSIFICATION sketch.
func New(cfg Config) *Sketch {
	cfg.fill()
	s := &Sketch{cfg: cfg, levelMix: hashing.NewMixer(hashing.DeriveSeed(cfg.Seed, 0xbe7))}
	s.rough = NewSimple(cfg.roughConfig())
	s.nodeRec = make([]*sparserec.Bank, cfg.Levels)
	for i := range s.nodeRec {
		// All node sketches at one level share a seed: summing them over a
		// vertex set A must be meaningful (Fig 3 step 4c).
		s.nodeRec[i] = sparserec.NewBank(cfg.N, cfg.RecoveryK, hashing.DeriveSeed(cfg.Seed, 0xbe70+uint64(i)))
	}
	s.lgN = math.Log2(float64(cfg.N)) + 1
	return s
}

// Config returns the filled configuration.
func (s *Sketch) Config() Config { return s.cfg }

// SetDecodeWorkers overrides the worker count of the rough sparsifier's
// level-parallel decode, witness extraction and class pass alike (0
// restores the GOMAXPROCS default). The decoded graph is bit-identical for
// every setting.
func (s *Sketch) SetDecodeWorkers(workers int) { s.rough.SetDecodeWorkers(workers) }

// Update applies a signed multiplicity change to edge {u, v}. Both the
// rough sparsifier and the x^{u,i} recovery banks see the update; the
// incidence convention is x^u[(a,b)] = +delta at the lower endpoint and
// -delta at the higher, so summing over a set cancels internal edges.
func (s *Sketch) Update(u, v int, delta int64) {
	if u == v || delta == 0 {
		return
	}
	s.decoded = false
	s.rough.Update(u, v, delta)
	if u > v {
		u, v = v, u
	}
	idx := stream.EdgeIndex(u, v, s.cfg.N)
	l := s.levelMix.Level(idx)
	if l >= s.cfg.Levels {
		l = s.cfg.Levels - 1
	}
	for i := 0; i <= l; i++ {
		s.nodeRec[i].UpdateEdge(u, v, idx, delta)
	}
}

// UpdateBatch applies a batch of updates: the rough sparsifier takes the
// whole batch through its own batch kernel, and the recovery banks take a
// level-descending counting sort so bank i consumes the leading run of
// updates with level >= i through Bank.UpdateEdges. Both halves fan out
// across GOMAXPROCS goroutines, one owner per level.
func (s *Sketch) UpdateBatch(ups []stream.Update) {
	s.updateBatch(ups, 0)
}

// updateBatch is UpdateBatch on an explicit worker setting (0 =
// GOMAXPROCS): the rough sketch's levels, then the recovery levels, each
// level with one owner.
func (s *Sketch) updateBatch(ups []stream.Update, workers int) {
	s.decoded = false
	s.rough.updateBatch(ups, workers)
	s.sorter.Replay(ups, s.cfg.Levels, true,
		func(up stream.Update) (int, bool) {
			if up.U == up.V || up.Delta == 0 {
				return 0, false
			}
			return s.subLevel(up.U, up.V), true
		},
		func(sorted []stream.Update, cum []int) {
			// Nesting: nothing at level i means nothing above.
			levels := 0
			for levels < s.cfg.Levels && cum[levels] > 0 {
				levels++
			}
			sketchcore.ForkJoin(levels, workers, func(i int) { s.nodeRec[i].UpdateEdges(sorted[:cum[i]]) })
		})
}

// subLevel returns the clamped subsampling level of edge {u, v}.
func (s *Sketch) subLevel(u, v int) int {
	l := s.levelMix.Level(stream.EdgeIndex(u, v, s.cfg.N))
	if l >= s.cfg.Levels {
		l = s.cfg.Levels - 1
	}
	return l
}

// Ingest replays a whole stream via the batch kernel.
func (s *Sketch) Ingest(st *stream.Stream) {
	s.UpdateBatch(st.Updates)
}

// IngestParallel is Ingest with the given number of worker goroutines
// (workers <= 0 defaults to GOMAXPROCS); the state is bit-identical.
func (s *Sketch) IngestParallel(st *stream.Stream, workers int) {
	s.updateBatch(st.Updates, workers)
}

// Add merges another sketch built with an identical config.
func (s *Sketch) Add(other *Sketch) {
	if s.cfg != other.cfg {
		panic("sparsify: merging incompatible sketches")
	}
	s.decoded = false
	s.rough.Add(other.rough)
	for i := range s.nodeRec {
		s.nodeRec[i].Add(other.nodeRec[i])
	}
}

// Equal reports config and bit-identical state equality.
func (s *Sketch) Equal(other *Sketch) bool {
	if s.cfg != other.cfg || !s.rough.Equal(other.rough) {
		return false
	}
	for i := range s.nodeRec {
		if !s.nodeRec[i].Equal(other.nodeRec[i]) {
			return false
		}
	}
	return true
}

// levelFor implements Fig 3 step 4b: j = floor(log(max(w * eps^2 / log n, 1))),
// with an engineering damping constant so the expected number of
// subsampled crossing edges stays a factor ~4 under RecoveryK.
func (s *Sketch) levelFor(w int64) int {
	x := float64(w) * s.cfg.Epsilon * s.cfg.Epsilon / (4 * s.lgN)
	if x < 1 {
		return 0
	}
	j := int(math.Floor(math.Log2(x)))
	if j >= s.cfg.Levels {
		j = s.cfg.Levels - 1
	}
	return j
}

// Sparsify runs Fig 3 step 4. Decode is read-only on the sketch and
// cached: repeated calls return the same graph (treat it as read-only).
func (s *Sketch) Sparsify() (*graph.Graph, error) {
	if !s.decoded {
		s.decGraph, s.decErr = s.sparsify()
		s.decoded = true
	}
	return s.decGraph, s.decErr
}

func (s *Sketch) sparsify() (*graph.Graph, error) {
	rough, err := s.rough.Sparsify()
	if err != nil {
		return nil, err
	}
	spars := graph.New(s.cfg.N)
	if rough.NumEdges() == 0 {
		return spars, nil
	}
	t := rough.GomoryHu()
	// One scratch recovery sketch per level bank (levels have independent
	// seeds, so peeling hashes differ), reused across every tree cut.
	scratches := make([]*sparserec.Sketch, s.cfg.Levels)
	for v := 0; v < s.cfg.N; v++ {
		if t.Parent[v] == -1 {
			continue
		}
		w := t.Weight[v]
		if w == 0 {
			continue // tree edge spanning disconnected pieces: no crossing edges
		}
		side := t.CutSide(v)
		j := s.levelFor(w)
		// Fig 3 step 4c: sum the level-j node sketches over the cut side;
		// by linearity the sum sketches exactly the crossing edges of G_j.
		// If decoding fails (more survivors than RecoveryK — the w.h.p.
		// failure case of Theorem 2.2), retry one level up, where half as
		// many edges survive; the weight scaling stays consistent because
		// subsampling is nested.
		for jj := j; jj < s.cfg.Levels; jj++ {
			if scratches[jj] == nil {
				scratches[jj] = s.nodeRec[jj].NewScratch()
			}
			items, ok := s.nodeRec[jj].DecodeSide(side, scratches[jj])
			if !ok {
				continue
			}
			for _, it := range items {
				a, b := stream.EdgeFromIndex(it.Index, s.cfg.N)
				// Step 4d: assign the edge to the minimum tree edge on its
				// path; include it only while processing that tree edge.
				if t.MinCutEdgeBetween(a, b) != v {
					continue
				}
				mult := it.Weight
				if mult < 0 {
					mult = -mult
				}
				spars.AddEdge(a, b, mult<<uint(jj))
			}
			break
		}
	}
	return spars, nil
}

// Words returns the memory footprint in 64-bit words (rough + recovery).
func (s *Sketch) Words() int {
	w := s.rough.Words()
	for i := range s.nodeRec {
		w += s.nodeRec[i].Words()
	}
	return w
}

// Words returns the memory footprint of the Simple sketch in 64-bit words.
func (s *Simple) Words() int {
	w := 0
	for _, ec := range s.ecs {
		w += ec.Words()
	}
	return w
}
