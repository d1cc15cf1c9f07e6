package sparsify

import (
	"math/bits"

	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// Weighted implements Sec. 3.5 / Theorem 3.8: sparsification of graphs with
// polynomially bounded edge weights by decomposing the input into O(log W)
// weight classes [2^c, 2^{c+1}), sparsifying each class independently, and
// merging the class sparsifiers.
//
// Streaming semantics: every update's |delta| is the edge's weight, so an
// insert (+w) and its delete (-w) land in the same class sketch and cancel
// there. Within a class, weights span a factor of at most 2 (the L of
// Lemma 3.6), which the class sketch absorbs by thresholding *weighted*
// connectivity at K*2^{c+1} while peeling 2*K forests.
type Weighted struct {
	n       int
	classes int
	cfg     WeightedConfig // as passed to NewWeighted (merge checks, wire header)
	ws      []*Simple
	sorter  sketchcore.BatchSorter // UpdateBatch class-sort scratch

	// Decode cache (see Simple): Sparsify is read-only and memoized.
	decoded  bool
	decGraph *graph.Graph
	decErr   error
}

// WeightedConfig parameterizes the weighted sparsifier.
type WeightedConfig struct {
	// N is the number of vertices (required).
	N int
	// Epsilon is the per-class target cut error.
	Epsilon float64
	// MaxWeight bounds edge weights; classes cover [1, MaxWeight].
	MaxWeight int64
	// K overrides the per-class base connectivity threshold.
	K int
	// Seed makes the run reproducible.
	Seed uint64
}

// NewWeighted creates the per-class sketches.
func NewWeighted(cfg WeightedConfig) *Weighted {
	if cfg.MaxWeight < 1 {
		cfg.MaxWeight = 1
	}
	classes := cfg.classes()
	w := &Weighted{n: cfg.N, classes: classes, cfg: cfg}
	w.ws = make([]*Simple, classes)
	for c := 0; c < classes; c++ {
		w.ws[c] = NewSimple(cfg.classConfig(c))
	}
	return w
}

// classes is the number of weight classes [2^c, 2^{c+1}) covering
// [1, MaxWeight].
func (cfg WeightedConfig) classes() int { return bits.Len64(uint64(cfg.MaxWeight)) }

// classConfig is weight class c's Simple configuration.
func (cfg WeightedConfig) classConfig(c int) SimpleConfig {
	base := SimpleConfig{
		N:       cfg.N,
		Epsilon: cfg.Epsilon,
		Seed:    hashing.DeriveSeed(cfg.Seed, 0x3e0+uint64(c)),
	}
	base.fill()
	if cfg.K != 0 {
		base.K = cfg.K
	}
	// Lemma 3.6: weights in [2^c, 2^{c+1}) = L factor 2 above the class
	// floor. Threshold weighted cuts at K * 2^{c+1}; peel 2K forests so
	// up to 2K distinct crossing edges are captured.
	return SimpleConfig{
		N:        cfg.N,
		Epsilon:  cfg.Epsilon,
		K:        base.K << uint(c+1),
		KForests: 2 * base.K,
		Levels:   base.Levels,
		Seed:     base.Seed,
	}
}

// SetDecodeWorkers overrides each class sketch's level-parallel decode
// worker count, witness extraction and k-connectivity class pass alike (0
// restores the GOMAXPROCS default). The decoded graph is bit-identical for
// every setting.
func (w *Weighted) SetDecodeWorkers(workers int) {
	for _, s := range w.ws {
		s.SetDecodeWorkers(workers)
	}
}

// Update routes an update to its weight class, keyed by |delta|.
func (w *Weighted) Update(u, v int, delta int64) {
	if u == v || delta == 0 {
		return
	}
	w.decoded = false
	w.ws[sketchcore.WeightClass(delta, w.classes)].Update(u, v, delta)
}

// UpdateBatch applies a batch of weighted updates: chunks are
// counting-sorted by weight class, and each class sketch consumes its
// contiguous run through its batch kernel (linearity makes the reordering
// bit-neutral). The classes fan out across GOMAXPROCS goroutines.
func (w *Weighted) UpdateBatch(ups []stream.Update) {
	w.updateBatch(ups, 0)
}

// updateBatch is UpdateBatch on an explicit worker setting (0 =
// GOMAXPROCS): one owner per weight class, the top classes (the widest
// weight ranges) claimed first. A class owner fans its own levels out on the same setting, so a
// stream whose weights sit in one class still spreads.
func (w *Weighted) updateBatch(ups []stream.Update, workers int) {
	w.decoded = false
	w.sorter.Replay(ups, w.classes, false,
		func(up stream.Update) (int, bool) {
			if up.U == up.V || up.Delta == 0 {
				return 0, false
			}
			return sketchcore.WeightClass(up.Delta, w.classes), true
		},
		func(sorted []stream.Update, cum []int) {
			sketchcore.ForkJoin(w.classes, workers, func(i int) {
				c := w.classes - 1 - i
				start := 0
				if c > 0 {
					start = cum[c-1]
				}
				if cum[c] > start {
					w.ws[c].updateBatch(sorted[start:cum[c]], workers)
				}
			})
		})
}

// Ingest replays a whole stream via the batch kernel.
func (w *Weighted) Ingest(st *stream.Stream) {
	w.UpdateBatch(st.Updates)
}

// IngestParallel is Ingest with the given number of worker goroutines
// (workers <= 0 defaults to GOMAXPROCS); the state is bit-identical.
func (w *Weighted) IngestParallel(st *stream.Stream, workers int) {
	w.updateBatch(st.Updates, workers)
}

// Add merges another weighted sparsifier built with an identical config:
// the per-class Simple sketches merge classwise by linearity, completing
// the distributed-streams API for the Sec. 3.5 construction.
func (w *Weighted) Add(other *Weighted) {
	if w.n != other.n || w.classes != other.classes || w.cfg != other.cfg {
		panic("sparsify: merging incompatible Weighted sketches")
	}
	w.decoded = false
	for c := range w.ws {
		w.ws[c].Add(other.ws[c])
	}
}

// Equal reports config and bit-identical state equality.
func (w *Weighted) Equal(other *Weighted) bool {
	if w.n != other.n || w.classes != other.classes || w.cfg != other.cfg {
		return false
	}
	for c := range w.ws {
		if !w.ws[c].Equal(other.ws[c]) {
			return false
		}
	}
	return true
}

// Sparsify merges the per-class sparsifiers (each decoded level-parallel
// through Simple's path, merged in class order for determinism). Decode is
// read-only and cached: repeated calls return the same graph.
func (w *Weighted) Sparsify() (*graph.Graph, error) {
	if w.decoded {
		return w.decGraph, w.decErr
	}
	out := graph.New(w.n)
	for _, s := range w.ws {
		sp, err := s.Sparsify()
		if err != nil {
			w.decGraph, w.decErr, w.decoded = nil, err, true
			return nil, err
		}
		for _, e := range sp.Edges() {
			out.AddEdge(e.U, e.V, e.W)
		}
	}
	w.decGraph, w.decErr, w.decoded = out, nil, true
	return out, nil
}

// Words returns the memory footprint in 64-bit words.
func (w *Weighted) Words() int {
	t := 0
	for _, s := range w.ws {
		t += s.Words()
	}
	return t
}
