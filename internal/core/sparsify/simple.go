// Package sparsify implements the paper's main result: single-pass,
// sketch-based graph sparsification for dynamic graph streams.
//
//   - Simple is SIMPLE-SPARSIFICATION (Fig 2, Theorem 3.3): nested
//     subsampled graphs G_0 ⊇ G_1 ⊇ ..., each summarized by k-EDGECONNECT;
//     post-processing freezes every edge at the first level where its
//     endpoints' connectivity in the witness drops below k, and weights it
//     2^level.
//   - Better is SPARSIFICATION (Fig 3, Theorem 3.4): a rough (1 +/- 1/2)
//     Simple sparsifier supplies a Gomory-Hu tree of approximate edge
//     connectivities; per-(node, level) k-RECOVERY sketches then recover,
//     for each tree cut, exactly the subsampled edges crossing it. This
//     replaces the heavy per-level k-EDGECONNECT machinery with sparse
//     recovery — the paper's headline space improvement.
//   - Weighted (Sec. 3.5, Theorem 3.8) decomposes a weighted graph into
//     powers-of-two weight classes, sparsifies each, and merges.
package sparsify

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"graphsketch/internal/agm"
	"graphsketch/internal/core/mincut"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// SimpleConfig parameterizes SIMPLE-SPARSIFICATION.
type SimpleConfig struct {
	// N is the number of vertices (required).
	N int
	// Epsilon is the target cut error; used to derive K when K == 0.
	Epsilon float64
	// K is the connectivity threshold k = O(eps^-2 log^2 n) of Fig 2.
	// Derived from Epsilon when 0 (engineering-scaled; see DESIGN.md).
	K int
	// KForests optionally uses a different number of peeled forests than
	// the weight threshold K (the weighted classes of Sec. 3.5 need
	// forests ~ 2*K/2^class while thresholding weighted cuts at K).
	KForests int
	// Levels is the number of subsampling levels (default log2(N)+3).
	Levels int
	// Seed makes the run reproducible.
	Seed uint64
}

func (c *SimpleConfig) fill() {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.5
	}
	lg := 0
	for m := 1; m < c.N; m <<= 1 {
		lg++
	}
	if c.K == 0 {
		k := int(float64(lg)/(c.Epsilon*c.Epsilon)) + 4
		if k < 6 {
			k = 6
		}
		c.K = k
	}
	if c.KForests == 0 {
		c.KForests = c.K
	}
	if c.Levels == 0 {
		c.Levels = lg + 3
	}
}

// Filled returns the config with every zero field given its default.
func (c SimpleConfig) Filled() SimpleConfig {
	c.fill()
	return c
}

// Simple is the Fig 2 sketch.
type Simple struct {
	cfg      SimpleConfig
	levelMix hashing.Mixer
	ecs      []*agm.EdgeConnectSketch
	sorter   sketchcore.BatchSorter // UpdateBatch level-sort scratch

	// Decode cache: post-processing is read-only (witness extraction no
	// longer peels banks in place), so the sparsifier and the min cut are
	// each computed once per sketch state. A state change sets decoded =
	// false, which drops both (memo).
	decoded    bool
	sparsified bool
	decGraph   *graph.Graph
	decErr     error
	cutK       int // threshold of the cached min cut, 0 = none
	cut        mincut.Result
	cutErr     error
	decWorkers int // 0 = GOMAXPROCS
}

// memo drops the cached answers if the state changed since they were
// decoded.
func (s *Simple) memo() {
	if !s.decoded {
		s.sparsified, s.cutK, s.decoded = false, 0, true
	}
}

// SetDecodeWorkers overrides the worker count used by Sparsify's and
// MinCut's level-parallel decode — witness extraction and each level's
// k-connectivity class pass or Stoer-Wagner (0 restores the GOMAXPROCS
// default). The answers are bit-identical for every setting.
func (s *Simple) SetDecodeWorkers(workers int) { s.decWorkers = workers }

// NewSimple creates a SIMPLE-SPARSIFICATION sketch.
func NewSimple(cfg SimpleConfig) *Simple {
	cfg.fill()
	s := &Simple{cfg: cfg, levelMix: hashing.NewMixer(hashing.DeriveSeed(cfg.Seed, 0x51))}
	s.ecs = make([]*agm.EdgeConnectSketch, cfg.Levels)
	for i := range s.ecs {
		s.ecs[i] = agm.NewEdgeConnectSketch(cfg.N, cfg.KForests, hashing.DeriveSeed(cfg.Seed, 0x5100+uint64(i)))
	}
	return s
}

// Config returns the filled configuration.
func (s *Simple) Config() SimpleConfig { return s.cfg }

// Clone returns a copy: every level's k-EDGECONNECT bank is cloned,
// batch-sort scratch and the decode cache are unshared (the clone
// recomputes Sparsify on first call). The arenas share their cells
// copy-on-write (sketchcore.Arena.Clone), so a clone costs O(arenas) and the
// first write to either side pays for the arenas it touches. Clone marks
// the receiver's arenas, so it must not run concurrently with other use of
// s. Epoch-snapshot primitive for the concurrent service: queries run on
// the clone while the original ingests.
func (s *Simple) Clone() *Simple {
	c := &Simple{cfg: s.cfg, levelMix: s.levelMix, decWorkers: s.decWorkers}
	c.ecs = make([]*agm.EdgeConnectSketch, len(s.ecs))
	for i, ec := range s.ecs {
		c.ecs[i] = ec.Clone()
	}
	return c
}

// Update applies a signed multiplicity change to edge {u, v}.
func (s *Simple) Update(u, v int, delta int64) {
	if u == v || delta == 0 {
		return
	}
	s.decoded = false
	idx := stream.EdgeIndex(u, v, s.cfg.N)
	l := s.levelMix.Level(idx)
	if l >= s.cfg.Levels {
		l = s.cfg.Levels - 1
	}
	for i := 0; i <= l; i++ {
		s.ecs[i].Update(u, v, delta)
	}
}

// UpdateBatch applies a batch of updates: chunks are counting-sorted by
// subsampling level (descending), after which level sketch i consumes the
// leading run of updates with level >= i through its batch kernel (same
// structure as the mincut sketch; linearity makes the reordering
// bit-neutral). The levels fan out across GOMAXPROCS goroutines, one owner
// per level.
func (s *Simple) UpdateBatch(ups []stream.Update) {
	s.updateBatch(ups, 0)
}

// updateBatch is UpdateBatch on an explicit worker setting (0 =
// GOMAXPROCS).
func (s *Simple) updateBatch(ups []stream.Update, workers int) {
	s.decoded = false
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
			sketchcore.ForkJoin(levels, workers, func(i int) { s.ecs[i].UpdateBatch(sorted[:cum[i]]) })
		})
}

// subLevel returns the clamped subsampling level of edge {u, v}.
func (s *Simple) subLevel(u, v int) int {
	l := s.levelMix.Level(stream.EdgeIndex(u, v, s.cfg.N))
	if l >= s.cfg.Levels {
		l = s.cfg.Levels - 1
	}
	return l
}

// Ingest replays a whole stream via the batch kernel.
func (s *Simple) Ingest(st *stream.Stream) {
	s.UpdateBatch(st.Updates)
}

// IngestParallel is Ingest with the given number of worker goroutines
// (workers <= 0 defaults to GOMAXPROCS), one owner per level; the state is
// bit-identical.
func (s *Simple) IngestParallel(st *stream.Stream, workers int) {
	s.updateBatch(st.Updates, workers)
}

// Add merges another sketch built with an identical config.
func (s *Simple) Add(other *Simple) {
	if s.cfg != other.cfg {
		panic("sparsify: merging incompatible Simple sketches")
	}
	s.decoded = false
	for i := range s.ecs {
		s.ecs[i].Add(other.ecs[i])
	}
}

// Equal reports config and bit-identical state equality.
func (s *Simple) Equal(other *Simple) bool {
	if s.cfg != other.cfg {
		return false
	}
	for i := range s.ecs {
		if !s.ecs[i].Equal(other.ecs[i]) {
			return false
		}
	}
	return true
}

// Sparsify runs Fig 2's post-processing and returns the weighted
// sparsifier. Decode is read-only on the sketch and cached: repeated calls
// return the same graph (treat it as read-only).
func (s *Simple) Sparsify() (*graph.Graph, error) {
	if s.memo(); !s.sparsified {
		s.decGraph, s.decErr = s.sparsifyLevels(s.decWorkers)
		s.sparsified = true
	}
	return s.decGraph, s.decErr
}

// MinCut answers Fig 1 (Theorem 3.2) off the sparsifier's own levels: the
// scan for j = min{i : lambda(H_i) < k}, with H_i the witness of level i's
// first k forests (mincut.DecodeLevels). Those forests are a k-EDGECONNECT
// sketch of G_i, so this is the min-cut sketch at threshold k on this
// sketch's hashes, without a second stack of levels. k must lie in
// [1, Config().KForests]. The answer for the last k asked is cached beside
// Sparsify's, and dropped with it.
func (s *Simple) MinCut(k int) (mincut.Result, error) {
	if s.memo(); s.cutK != k {
		s.cut, _, s.cutErr = mincut.DecodeLevels(s.ecs, k, s.decWorkers)
		s.cutK = k
	}
	return s.cut, s.cutErr
}

// sparsifyLevels extracts every level's witness and, for each level that
// is not saturated, its k-connectivity classes — independent levels claimed
// off an atomic counter by up to `workers` goroutines (0 = GOMAXPROCS),
// each owning its extraction and flow scratch — then assembles the
// sparsifier. Results are bit-identical for any worker count: hs[i] and
// classes[i] depend only on level i's sketch, and assembly consumes the
// levels in index order. Property tests pin this against workers = 1.
func (s *Simple) sparsifyLevels(workers int) (*graph.Graph, error) {
	levels := s.cfg.Levels
	k := int64(s.cfg.K)
	hs := make([]*graph.Graph, levels)
	classes := make([][]int, levels)
	var next atomic.Int64
	work := func() {
		ws := agm.NewWitnessScratch()
		var cs graph.ClassScratch
		for {
			i := int(next.Add(1) - 1)
			if i >= levels {
				return
			}
			hs[i] = graph.New(s.cfg.N)
			if !s.ecs[i].WitnessInto(hs[i], ws) {
				classes[i], _ = hs[i].KClasses(k, &cs)
			}
		}
	}
	if workers = min(sketchcore.Workers(workers), levels); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	return assembleSimple(hs, classes, s.cfg.N), nil
}

// assembleSimple implements Fig 2 step 3 given the witnesses: for each
// candidate edge, find j = min{i : lambda_e(H_i) < k}; if e in H_j, weight
// it 2^j (times its multiplicity).
//
// Each level answers the "lambda_e(H_i) < k" probe without a flow:
//
//   - classes[i] is nil on levels whose witness is provably >= k-connected
//     (k edge-disjoint spanning trees — WitnessInfo's flag). There
//     lambda_e(H_i) >= lambda(H_i) >= k for every pair, so the test is
//     false.
//   - every other level carries its vertices' classes under
//     lambda(u, v) >= k (graph.KClasses): the test is true iff u and v lie
//     in different classes.
//
// Both decide exactly what a capped max-flow per (candidate, level) would,
// so the frozen level, and therefore every output byte, matches it — pinned
// by TestSparsifyGolden and the reference-assembly property tests.
func assembleSimple(hs []*graph.Graph, classes [][]int, n int) *graph.Graph {
	spars := graph.New(n)
	// Candidate edges: union over witnesses, deduped via one sorted slice
	// (deterministic iteration order, no map).
	var keys []uint64
	for _, h := range hs {
		for _, e := range h.Edges() {
			keys = append(keys, stream.EdgeIndex(e.U, e.V, n))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var prev uint64
	havePrev := false
	for _, idx := range keys {
		if havePrev && idx == prev {
			continue
		}
		prev, havePrev = idx, true
		u, v := stream.EdgeFromIndex(idx, n)
		for i, h := range hs {
			c := classes[i]
			if c == nil {
				continue // lambda_e >= lambda(H_i) >= k: e does not freeze here
			}
			if c[u] != c[v] {
				if w := h.Weight(u, v); w != 0 {
					spars.AddEdge(u, v, w<<uint(i))
				}
				break
			}
		}
	}
	return spars
}

// MaxCutError measures the maximum relative cut error of sparsifier h
// against graph g over a set of probe cuts: all singleton cuts, `random`
// pseudorandom bisections, and (if g is small) the min cut side. This is
// the accuracy metric reported by the E5/E6 benches.
func MaxCutError(g, h *graph.Graph, random int, seed uint64) float64 {
	n := g.N()
	worst := 0.0
	probe := func(side []bool) {
		gv := g.CutValue(side)
		hv := h.CutValue(side)
		if gv == 0 {
			return
		}
		rel := float64(hv-gv) / float64(gv)
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst = rel
		}
	}
	// One scratch buffer for every probe. The singleton loop flips a single
	// bit per vertex instead of rewriting the whole slice each iteration.
	side := make([]bool, n)
	for v := 0; v < n; v++ {
		side[v] = true
		probe(side)
		side[v] = false
	}
	r := hashing.NewRNG(seed)
	for t := 0; t < random; t++ {
		for i := range side {
			side[i] = r.Intn(2) == 0
		}
		probe(side)
	}
	return worst
}

// ErrEmpty is returned by post-processing when no edges were sketched.
var ErrEmpty = errors.New("sparsify: empty sketch")
