package agm

import (
	"math/bits"

	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// MSTSketch approximates a minimum-weight spanning forest of a weighted
// dynamic graph stream — the remaining primitive of the companion paper
// [4] ("finding minimum spanning trees", Sec. 1.2). Edge weights ride in
// |delta| (insert +w, delete -w), as in the Sec. 3.5 weighted sparsifier.
//
// Construction: prefix weight classes. Sketch c summarizes every edge of
// weight < 2^{c+1}. Extraction runs Boruvka class by class, carrying one
// global partition: class c can only merge components using edges of
// weight < 2^{c+1}, which is exactly Kruskal's rule at powers-of-two
// granularity. Because each sampled edge reports its true weight, the
// output forest's weight is typically much closer to optimal than the
// worst-case factor-2 the class rounding allows.
type MSTSketch struct {
	n       int
	classes int
	seed    uint64
	prefix  []*ForestSketch        // prefix[c] holds all edges with class <= c
	sorter  sketchcore.BatchSorter // UpdateBatch class-sort scratch
}

// NewMSTSketch creates a sketch for edge weights in [1, maxWeight].
func NewMSTSketch(n int, maxWeight int64, seed uint64) *MSTSketch {
	if maxWeight < 1 {
		maxWeight = 1
	}
	return newMSTSketchClasses(n, bits.Len64(uint64(maxWeight)), seed)
}

// newMSTSketchClasses builds a sketch with an explicit class count (the
// wire decoder's constructor).
func newMSTSketchClasses(n, classes int, seed uint64) *MSTSketch {
	m := &MSTSketch{n: n, classes: classes, seed: seed}
	m.prefix = make([]*ForestSketch, classes)
	for c := 0; c < classes; c++ {
		m.prefix[c] = NewForestSketch(n, hashing.DeriveSeed(seed, 0x357+uint64(c)))
	}
	return m
}

// Update applies a signed weighted change to edge {u, v}: |delta| is the
// edge weight, the sign inserts or deletes.
func (m *MSTSketch) Update(u, v int, delta int64) {
	if u == v || delta == 0 {
		return
	}
	c := sketchcore.WeightClass(delta, m.classes)
	// Prefix structure: every class >= c sees the edge.
	for i := c; i < m.classes; i++ {
		m.prefix[i].Update(u, v, delta)
	}
}

// UpdateBatch applies a batch of weighted updates: chunks are
// counting-sorted by weight class (ascending), after which prefix sketch c
// consumes exactly the leading run of updates with class <= c through its
// batch kernel (linearity makes the reordering bit-neutral).
func (m *MSTSketch) UpdateBatch(ups []stream.Update) {
	m.updateBatch(ups, 0)
}

// updateBatch is UpdateBatch with the prefix sketches fanned out one owner
// per weight class on sketchcore.ForkJoin (workers <= 0 = GOMAXPROCS).
// Prefix c sees every class <= c, so the top classes carry the most
// updates and are claimed first.
func (m *MSTSketch) updateBatch(ups []stream.Update, workers int) {
	m.sorter.Replay(ups, m.classes, false,
		func(up stream.Update) (int, bool) {
			if up.U == up.V || up.Delta == 0 {
				return 0, false
			}
			return sketchcore.WeightClass(up.Delta, m.classes), true
		},
		func(sorted []stream.Update, cum []int) {
			sketchcore.ForkJoin(m.classes, workers, func(i int) {
				if c := m.classes - 1 - i; cum[c] > 0 {
					m.prefix[c].UpdateBatch(sorted[:cum[c]])
				}
			})
		})
}

// Ingest replays a whole stream via the batch kernel.
func (m *MSTSketch) Ingest(st *stream.Stream) {
	m.UpdateBatch(st.Updates)
}

// IngestParallel is Ingest with the given number of worker goroutines
// (workers <= 0 defaults to GOMAXPROCS); the state is bit-identical.
func (m *MSTSketch) IngestParallel(st *stream.Stream, workers int) {
	m.updateBatch(st.Updates, workers)
}

// Add merges another MSTSketch (same n, maxWeight, seed).
func (m *MSTSketch) Add(other *MSTSketch) {
	if m.n != other.n || m.classes != other.classes || m.seed != other.seed {
		panic("agm: merging incompatible MST sketches")
	}
	for c := range m.prefix {
		m.prefix[c].Add(other.prefix[c])
	}
}

// MergeMany folds k MST sketches into m class by class in one
// occupancy-guided pass each; bit-identical to sequential pairwise Add.
func (m *MSTSketch) MergeMany(others []*MSTSketch) {
	for _, o := range others {
		if m.n != o.n || m.classes != o.classes || m.seed != o.seed {
			panic("agm: merging incompatible MST sketches")
		}
	}
	srcs := make([]*ForestSketch, len(others))
	for c := range m.prefix {
		for i, o := range others {
			srcs[i] = o.prefix[c]
		}
		m.prefix[c].MergeMany(srcs)
	}
}

// AppendState appends the tagged state of every prefix-class forest sketch
// (headerless; the envelope carries n, classes, seed).
func (m *MSTSketch) AppendState(buf []byte) []byte {
	for _, p := range m.prefix {
		buf = p.AppendState(buf)
	}
	return buf
}

// DecodeState reads the state written by AppendState, replacing contents.
func (m *MSTSketch) DecodeState(data []byte) ([]byte, error) {
	var err error
	for _, p := range m.prefix {
		if data, err = p.DecodeState(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// MergeState folds tagged state directly into the class sketches.
func (m *MSTSketch) MergeState(data []byte) ([]byte, error) {
	var err error
	for _, p := range m.prefix {
		if data, err = p.MergeState(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Footprint reports space accounting summed over the class sketches.
func (m *MSTSketch) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	for _, p := range m.prefix {
		f.Accum(p.Footprint())
	}
	return f
}

// Equal reports parameter and bit-identical state equality.
func (m *MSTSketch) Equal(other *MSTSketch) bool {
	if m.n != other.n || m.classes != other.classes || m.seed != other.seed {
		return false
	}
	for c := range m.prefix {
		if !m.prefix[c].Equal(other.prefix[c]) {
			return false
		}
	}
	return true
}

// ApproxMSF extracts the approximate minimum spanning forest: edges with
// their true weights, and the total. The per-edge weight is within a
// factor 2 of the Kruskal choice (class granularity); the forest spans
// every component w.h.p.
func (m *MSTSketch) ApproxMSF() ([]graph.Edge, int64) {
	dsu := graph.NewDSU(m.n)
	var forest []graph.Edge
	var total int64
	for c := 0; c < m.classes && dsu.Count() > 1; c++ {
		for _, e := range m.prefix[c].SpanningForestFrom(dsu) {
			forest = append(forest, e)
			total += e.W
		}
	}
	return forest, total
}

// Words returns the memory footprint in 64-bit words.
func (m *MSTSketch) Words() int {
	w := 0
	for _, p := range m.prefix {
		w += p.Words()
	}
	return w
}
