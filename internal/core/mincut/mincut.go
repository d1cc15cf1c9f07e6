// Package mincut implements the MINCUT algorithm of Fig 1 (Theorem 3.2):
// a single-pass, sketch-based (1+eps)-approximation of the global minimum
// cut in the dynamic graph stream model.
//
// The stream is consumed once into a family of nested subsampled graphs
// G = G_0 ⊇ G_1 ⊇ G_2 ⊇ ... (edge e survives to level i iff its consistent
// hash level is >= i, so deletions cancel insertions at every level), each
// summarized by a k-EDGECONNECT sketch. Post-processing finds
// j = min{i : lambda(H_i) < k} and returns 2^j * lambda(H_j): by Karger's
// uniform sampling lemma (Lemma 3.1), level j's min cut rescales to a
// (1 +/- eps) estimate of lambda(G) when k = Theta(eps^-2 log n).
package mincut

import (
	"errors"
	"sync"
	"sync/atomic"

	"graphsketch/internal/agm"
	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// Config parameterizes the sketch. Zero values get sensible defaults.
type Config struct {
	// N is the number of vertices (required).
	N int
	// Epsilon is the target relative error; used to derive K when K == 0.
	Epsilon float64
	// K overrides the edge-connectivity parameter k = O(eps^-2 log n).
	// The theoretical constant (6, Lemma 3.1) is scaled down for
	// laptop-scale graphs; see DESIGN.md "Parameter conventions".
	K int
	// Levels overrides the number of subsampling levels
	// (default log2(N)+3; the paper allows up to 2 log N).
	Levels int
	// Seed makes the run reproducible.
	Seed uint64
}

func (c *Config) fill() {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.5
	}
	if c.K == 0 {
		ln := 0.0
		for m := 1; m < c.N; m <<= 1 {
			ln++
		}
		k := int(2.0*ln/(c.Epsilon*c.Epsilon)) + 2
		if k < 4 {
			k = 4
		}
		c.K = k
	}
	if c.Levels == 0 {
		l := 3
		for m := 1; m < c.N; m <<= 1 {
			l++
		}
		c.Levels = l
	}
}

// Sketch is the single-pass MINCUT sketch.
type Sketch struct {
	cfg      Config
	levelMix hashing.Mixer
	ecs      []*agm.EdgeConnectSketch
	sorter   sketchcore.BatchSorter // UpdateBatch level-sort scratch

	// Decode cache: post-processing is read-only (witness extraction stages
	// forest subtractions as pending plans), so the result is computed once
	// and invalidated only when the sketch state changes.
	decoded    bool
	decRes     Result
	decSide    []bool
	decErr     error
	decWorkers int // 0 = GOMAXPROCS
}

// SetDecodeWorkers overrides the worker count used by MinCut's
// level-parallel decode (0 restores the GOMAXPROCS default). The decoded
// result is bit-identical for every setting; the knob exists for
// single-thread benchmarking and decode bit-identity checks.
func (s *Sketch) SetDecodeWorkers(workers int) { s.decWorkers = workers }

// New creates a MINCUT sketch.
func New(cfg Config) *Sketch {
	cfg.fill()
	s := &Sketch{cfg: cfg, levelMix: hashing.NewMixer(hashing.DeriveSeed(cfg.Seed, 0x717))}
	s.ecs = make([]*agm.EdgeConnectSketch, cfg.Levels)
	for i := range s.ecs {
		s.ecs[i] = agm.NewEdgeConnectSketch(cfg.N, cfg.K, hashing.DeriveSeed(cfg.Seed, uint64(i)))
	}
	return s
}

// Clone returns a copy: every level's k-EDGECONNECT bank is cloned,
// batch-sort scratch and the decode cache are unshared (the clone
// recomputes MinCut on first call). The arenas share their cells
// copy-on-write (sketchcore.Arena.Clone), so a clone costs O(arenas) and the
// first write to either side pays for the arenas it touches. Clone marks
// the receiver's arenas, so it must not run concurrently with other use of
// s. Epoch-snapshot primitive for the concurrent service: queries run on
// the clone while the original ingests.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{cfg: s.cfg, levelMix: s.levelMix, decWorkers: s.decWorkers}
	c.ecs = make([]*agm.EdgeConnectSketch, len(s.ecs))
	for i, ec := range s.ecs {
		c.ecs[i] = ec.Clone()
	}
	return c
}

// K returns the derived edge-connectivity parameter.
func (s *Sketch) K() int { return s.cfg.K }

// Levels returns the number of subsampling levels.
func (s *Sketch) Levels() int { return s.cfg.Levels }

// Update applies a signed multiplicity change to edge {u, v}. The edge's
// subsampling level is a consistent hash, so an insert and a later delete
// land in exactly the same G_i's.
func (s *Sketch) Update(u, v int, delta int64) {
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
// subsampling level (descending), after which level sketch i consumes
// exactly the leading run of updates with level >= i through its batch
// kernel — one contiguous replay per level instead of a per-update fan-out
// (linearity makes the reordering bit-neutral). The levels fan out across
// GOMAXPROCS goroutines, one owner per level.
func (s *Sketch) UpdateBatch(ups []stream.Update) {
	s.updateBatch(ups, 0)
}

// updateBatch is UpdateBatch on an explicit worker setting (0 =
// GOMAXPROCS).
func (s *Sketch) updateBatch(ups []stream.Update, workers int) {
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
// (workers <= 0 defaults to GOMAXPROCS), one owner per level; the state is
// bit-identical.
func (s *Sketch) IngestParallel(st *stream.Stream, workers int) {
	s.updateBatch(st.Updates, workers)
}

// Add merges another sketch built with an identical Config: the
// distributed-stream operation.
func (s *Sketch) Add(other *Sketch) {
	if s.cfg != other.cfg {
		panic("mincut: merging incompatible sketches")
	}
	s.decoded = false
	for i := range s.ecs {
		s.ecs[i].Add(other.ecs[i])
	}
}

// Equal reports config and bit-identical state equality.
func (s *Sketch) Equal(other *Sketch) bool {
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

// Result reports the min-cut estimate and diagnostics.
type Result struct {
	// Value is the estimate 2^Level * lambda(H_Level).
	Value int64
	// Level is the subsampling level j the estimate came from (0 = exact
	// witness, no subsampling variance).
	Level int
	// WitnessCut is lambda(H_Level) before rescaling.
	WitnessCut int64
	// WitnessEdges is the size of the witness subgraph used.
	WitnessEdges int
}

// ErrAllLevelsSaturated is returned when every level's witness still has a
// min cut >= k; the configuration had too few levels for the graph's
// connectivity.
var ErrAllLevelsSaturated = errors.New("mincut: all subsampling levels saturated (increase Levels or K)")

// MinCut runs Fig 1's post-processing. Decode is read-only on the sketch
// and cached: repeated calls return the same result.
func (s *Sketch) MinCut() (Result, error) {
	res, _, err := s.decode(s.decWorkers)
	return res, err
}

// MinCutWithSide additionally returns the cut side (in the witness graph)
// realizing the estimate. Shares MinCut's cached decode.
func (s *Sketch) MinCutWithSide() (Result, []bool, error) {
	return s.decode(s.decWorkers)
}

// decode memoizes DecodeLevels on the sketch's levels.
func (s *Sketch) decode(workers int) (Result, []bool, error) {
	if !s.decoded {
		s.decRes, s.decSide, s.decErr = DecodeLevels(s.ecs, s.cfg.K, workers)
		s.decoded = true
	}
	return s.decRes, s.decSide, s.decErr
}

// levelDecode is one subsampling level's post-processing outcome.
type levelDecode struct {
	done bool   // level was decoded (not short-circuited away)
	ok   bool   // witness min cut < k: this level can answer
	val  int64  // lambda(H_i) when ok
	side []bool // a side realizing it
	m    int    // witness edge count
}

// DecodeLevels is Fig 1's scan for j = min{i : lambda(H_i) < k}, with H_i
// the witness of the first k forests of ecs[i] (at most any level's forest
// count), run level-parallel: behind MinCut, and behind any other stack of
// nested levels. Independent levels are claimed off an atomic counter by up
// to `workers` goroutines (0 = GOMAXPROCS), each owning a reusable witness
// graph and extraction scratch. Two exact short-circuits keep the work
// proportional to the answer:
//
//   - levels above the best sub-k level found so far are never claimed
//     (they cannot lower j), which in the sequential case degenerates to
//     the classic stop-at-first-hit scan;
//   - when every peeled forest of a level is a provably intact spanning
//     tree (WitnessInfo's saturation flag), the witness is the union of k
//     edge-disjoint spanning trees, so mincut(H_i) >= k holds without
//     running Stoer-Wagner at all.
//
// The result is bit-identical to the sequential scan for any worker count:
// each level's (val, side) is a deterministic function of that level's
// sketch alone, and the returned level is the minimum ok level, independent
// of scheduling. Property tests pin this against workers = 1.
func DecodeLevels(ecs []*agm.EdgeConnectSketch, k, workers int) (Result, []bool, error) {
	levels := len(ecs)
	out := make([]levelDecode, levels)
	var next atomic.Int64
	var best atomic.Int64
	best.Store(int64(levels))
	workers = min(sketchcore.Workers(workers), levels)
	work := func() {
		h := graph.New(0)
		ws := agm.NewWitnessScratch()
		for {
			i := int(next.Add(1) - 1)
			if i >= levels || int64(i) > best.Load() {
				return
			}
			saturated := ecs[i].WitnessPrefixInto(h, ws, k)
			ld := levelDecode{done: true}
			if !saturated {
				val, side := h.StoerWagner()
				if val < int64(k) {
					ld.ok, ld.val, ld.side, ld.m = true, val, side, h.NumEdges()
					for {
						b := best.Load()
						if int64(i) >= b || best.CompareAndSwap(b, int64(i)) {
							break
						}
					}
				}
			}
			out[i] = ld
		}
	}
	if workers <= 1 {
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
	for i := range out {
		if out[i].done && out[i].ok {
			return Result{
				Value:        out[i].val << uint(i),
				Level:        i,
				WitnessCut:   out[i].val,
				WitnessEdges: out[i].m,
			}, out[i].side, nil
		}
	}
	return Result{}, nil, ErrAllLevelsSaturated
}

// Words returns the memory footprint in 64-bit words.
func (s *Sketch) Words() int {
	w := 0
	for _, ec := range s.ecs {
		w += ec.Words()
	}
	return w
}

// Exact computes the exact min cut of the graph defined by a stream
// (baseline; Stoer-Wagner on the materialized graph).
func Exact(st *stream.Stream) int64 {
	g := graph.FromStream(st)
	val, _ := g.StoerWagner()
	return val
}
