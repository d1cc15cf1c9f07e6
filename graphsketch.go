// Package graphsketch is a Go implementation of the graph sketching
// algorithms of Ahn, Guha, and McGregor, "Graph Sketches: Sparsification,
// Spanners, and Subgraphs" (PODS 2012).
//
// A graph sketch is a small linear projection of a graph's edge-multiplicity
// vector. Linearity buys three things at once (Sec. 1.1 of the paper):
//
//   - dynamic streams: deletions are negative updates that cancel
//     insertions inside the sketch;
//   - distributed streams: sketches of partial streams add up to the
//     sketch of the union;
//   - composability: summing per-node sketches over a vertex set yields a
//     sketch of exactly the edges crossing the set's boundary.
//
// The package exposes one sketch type per result in the paper:
//
//   - ConnectivitySketch / BipartitenessSketch — the [4] primitives the
//     paper builds on (spanning forests via l0-sampling).
//   - MinCutSketch — Fig 1, a single-pass (1+eps) minimum cut.
//   - SimpleSparsifier / Sparsifier / WeightedSparsifier — Figs 2-3 and
//     Sec. 3.5: (1+eps) cut sparsifiers in one pass.
//   - SubgraphSketch — Fig 4: additive-eps estimates of the fraction of
//     order-k induced subgraphs matching a pattern (triangles, wedges,
//     4-cliques, ...).
//   - BaswanaSenSpanner / RecurseConnectSpanner — Sec. 5's adaptive
//     (multi-pass) spanner constructions.
//
// Because every sketch is a linear projection, they share one surface,
// defined once and promoted into each type. Every sketch ingests with
// Update, UpdateBatch, Ingest and IngestParallel and reports its space with
// Footprint. Every sketch except BipartitenessSketch also ships over the
// wire: MarshalBinaryCompact encodes it, UnmarshalBinary decodes it, and
// MergeBytes folds an encoded sketch into a live one. Add, MergeMany, Clone
// and the queries are per type. The spanner sketches share a second core:
// an update log replayed by a memoized multi-pass Build.
//
// Every constructor takes an explicit seed; two sketches built with the
// same parameters and seed are mergeable with Add and behave identically on
// identical final graphs regardless of update order.
package graphsketch

import (
	"errors"

	"graphsketch/internal/agm"
	"graphsketch/internal/core/mincut"
	"graphsketch/internal/core/spanner"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/subgraph"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
	"graphsketch/internal/wire"
)

// Footprint is the space report every sketch exposes: resident bytes, cell
// occupancy (total vs non-zero), and serialized size. The wire encoding
// costs bytes proportional to the non-zero state, which is what a
// distributed site actually ships (Sec. 1.1).
type Footprint = sketchcore.Footprint

// Graph is a weighted undirected graph; the output type of sparsifiers,
// spanners, and witnesses, with exact-algorithm methods (BFS, StoerWagner,
// GomoryHu, CutValue, ...) for verification.
type Graph = graph.Graph

// Edge is an undirected weighted edge with U < V.
type Edge = graph.Edge

// NewGraph creates an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// Stream is a replayable dynamic graph stream (Definition 1).
type Stream = stream.Stream

// Update is one stream element: Delta applied to edge {U, V}.
type Update = stream.Update

// FromStream materializes a stream's final graph (exact baseline).
func FromStream(s *Stream) *Graph { return graph.FromStream(s) }

// errUninitializedMerge is returned by MergeBytes on a zero-value sketch:
// unlike UnmarshalBinary (which reconstructs everything from the payload
// header), a wire merge needs an already-constructed destination to verify
// parameters against.
var errUninitializedMerge = errors.New("graphsketch: MergeBytes on a zero-value sketch; construct it (or UnmarshalBinary) first")

// ErrBadEncoding is the sentinel every UnmarshalBinary / MergeBytes failure
// wraps: truncated, corrupted, oversized, or parameter-mismatched payloads
// all satisfy errors.Is(err, ErrBadEncoding). It is the one sentinel of
// every decoding layer, so the chain down to the failing codec is kept and
// the message names that layer. No payload content, however malformed,
// panics these entry points — corrupt bytes are an input condition, not a
// programmer error.
var ErrBadEncoding = wire.ErrBadEncoding

// ---------------------------------------------------------------------------
// The shared linear-sketch surface
// ---------------------------------------------------------------------------

// sketch is what every internal sketch behind the facade implements.
type sketch interface {
	Update(u, v int, delta int64)
	Ingest(s *stream.Stream)
	UpdateBatch(ups []stream.Update)
	IngestParallel(s *stream.Stream, workers int)
	Footprint() sketchcore.Footprint
}

// wireSketch is a sketch with a wire encoding; P is a pointer to S, so a
// zero-value facade can allocate the S it decodes into.
type wireSketch[S any] interface {
	*S
	sketch
	MarshalBinaryCompact() ([]byte, error)
	UnmarshalBinary(data []byte) error
	MergeBinary(data []byte) error
}

// ingester is the ingest half of the shared surface, embedded by every
// linear sketch type.
type ingester[P sketch] struct{ sk P }

// Update applies a signed multiplicity change to edge {u, v}. For the
// weighted sketches (MSTSketch, WeightedSparsifier) |delta| is the edge's
// weight.
func (c *ingester[P]) Update(u, v int, delta int64) { c.sk.Update(u, v, delta) }

// Ingest replays a whole stream.
func (c *ingester[P]) Ingest(s *Stream) { c.sk.Ingest(s) }

// UpdateBatch applies a slice of updates through the batched kernels:
// bit-identical to the same Update calls, with per-edge hashing hoisted and
// the batch sorted by level, class or bank before it is replayed. Every
// sketch but ConnectivitySketch then applies it as IngestParallel with
// GOMAXPROCS workers does.
func (c *ingester[P]) UpdateBatch(ups []Update) { c.sk.UpdateBatch(ups) }

// IngestParallel replays a stream on up to workers goroutines, each owning
// a disjoint share of the sketch (subsampling levels, weight classes,
// sampler banks or slot ranges) that it alone writes, so the state is
// bit-identical to Ingest. workers <= 0 defaults to GOMAXPROCS.
func (c *ingester[P]) IngestParallel(s *Stream, workers int) { c.sk.IngestParallel(s, workers) }

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (c *ingester[P]) Footprint() Footprint { return c.sk.Footprint() }

// core returns the internal sketch (see cores).
func (c *ingester[P]) core() P { return c.sk }

// linear is the whole shared surface: ingest plus the wire encoding.
// Every wire-capable sketch type embeds it.
type linear[S any, P wireSketch[S]] struct{ ingester[P] }

// newLinear wraps an internal sketch.
func newLinear[S any, P wireSketch[S]](sk P) linear[S, P] { return linear[S, P]{ingester[P]{sk}} }

// MarshalBinaryCompact serializes the sketch with bytes proportional to its
// non-zero state (zero-run-length + varint cells) — the per-site payload a
// distributed site ships to the coordinator.
func (c *linear[S, P]) MarshalBinaryCompact() ([]byte, error) { return c.sk.MarshalBinaryCompact() }

// UnmarshalBinary reconstructs the sketch from its wire form, parameters
// included, so it also works on a zero value.
func (c *linear[S, P]) UnmarshalBinary(data []byte) error {
	if c.sk == nil {
		c.sk = P(new(S))
	}
	return c.sk.UnmarshalBinary(data)
}

// MergeBytes folds a serialized sketch built with the same parameters and
// seed directly into the receiver without materializing a second sketch —
// the wire-level coordinator merge. On error the destination may already
// hold a partially folded prefix of the payload — discard the sketch rather
// than retrying the same bytes, or the prefix double-counts.
func (c *linear[S, P]) MergeBytes(data []byte) error {
	if c.sk == nil {
		return errUninitializedMerge
	}
	return c.sk.MergeBinary(data)
}

// cores unwraps facade sketches to their internal sketches, for MergeMany.
func cores[F interface{ core() P }, P any](fs []F) []P {
	out := make([]P, len(fs))
	for i, f := range fs {
		out[i] = f.core()
	}
	return out
}

// ---------------------------------------------------------------------------
// Connectivity & bipartiteness (the [4] primitives, Theorem 2.3 substrate)
// ---------------------------------------------------------------------------

// ConnectivitySketch answers connectivity queries about a dynamic graph
// stream using O(n polylog n) space. Its wire form is the AGM3 envelope.
type ConnectivitySketch struct {
	linear[agm.ForestSketch, *agm.ForestSketch]
}

// NewConnectivitySketch creates a connectivity sketch for n vertices.
func NewConnectivitySketch(n int, seed uint64) *ConnectivitySketch {
	return &ConnectivitySketch{newLinear(agm.NewForestSketch(n, seed))}
}

// Add merges a sketch built with the same (n, seed).
func (c *ConnectivitySketch) Add(other *ConnectivitySketch) { c.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same (n, seed) in one
// occupancy-guided pass per sampler bank — the coordinator aggregation
// step, bit-identical to sequential pairwise Add calls.
func (c *ConnectivitySketch) MergeMany(others []*ConnectivitySketch) { c.sk.MergeMany(cores(others)) }

// Clone returns an independent copy: updating either sketch never perturbs
// the other. The two share cells copy-on-write, so the clone costs
// O(sampler banks) and the first write to either side copies what it
// touches. This is the epoch-snapshot hook the concurrent service uses —
// clone under the writer (Clone marks the receiver, so it is a write),
// query the clone concurrently.
func (c *ConnectivitySketch) Clone() *ConnectivitySketch {
	return &ConnectivitySketch{newLinear(c.sk.Clone())}
}

// Connected reports whether the sketched graph is connected.
func (c *ConnectivitySketch) Connected() bool { return c.sk.IsConnected() }

// Components returns the number of connected components.
func (c *ConnectivitySketch) Components() int { return c.sk.ComponentCount() }

// SpanningForest extracts a spanning forest (edges carry multiplicities).
func (c *ConnectivitySketch) SpanningForest() []Edge { return c.sk.SpanningForest() }

// BipartitenessSketch decides bipartiteness of a dynamic graph stream via
// the double-cover reduction. It has no wire form.
type BipartitenessSketch struct {
	ingester[*agm.BipartitenessSketch]
}

// NewBipartitenessSketch creates a bipartiteness sketch for n vertices.
func NewBipartitenessSketch(n int, seed uint64) *BipartitenessSketch {
	return &BipartitenessSketch{ingester[*agm.BipartitenessSketch]{agm.NewBipartitenessSketch(n, seed)}}
}

// Bipartite reports whether the sketched graph is bipartite.
func (b *BipartitenessSketch) Bipartite() bool { return b.sk.IsBipartite() }

// MSTSketch approximates a minimum-weight spanning forest of a weighted
// dynamic stream (|delta| carries the edge weight) — the remaining [4]
// primitive. The weight is within a factor 2 of optimal (powers-of-two
// class granularity); sampled edges report their true weights.
type MSTSketch struct {
	linear[agm.MSTSketch, *agm.MSTSketch]
}

// NewMSTSketch creates an MST sketch for weights in [1, maxWeight].
func NewMSTSketch(n int, maxWeight int64, seed uint64) *MSTSketch {
	return &MSTSketch{newLinear(agm.NewMSTSketch(n, maxWeight, seed))}
}

// Add merges a sketch built with the same parameters and seed.
func (m *MSTSketch) Add(other *MSTSketch) { m.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters in one
// occupancy-guided pass per bank; bit-identical to sequential Add calls.
func (m *MSTSketch) MergeMany(others []*MSTSketch) { m.sk.MergeMany(cores(others)) }

// ApproxMSF extracts the approximate minimum spanning forest and its
// total weight.
func (m *MSTSketch) ApproxMSF() ([]Edge, int64) { return m.sk.ApproxMSF() }

// ---------------------------------------------------------------------------
// Minimum cut (Fig 1, Theorem 3.2)
// ---------------------------------------------------------------------------

// MinCutSketch is the single-pass (1+eps)-approximate minimum cut sketch.
type MinCutSketch struct {
	linear[mincut.Sketch, *mincut.Sketch]
}

// MinCutResult reports the estimate and diagnostics.
type MinCutResult = mincut.Result

// NewMinCutSketch creates a min-cut sketch for n vertices targeting
// relative error eps (eps <= 0 defaults to 0.5).
func NewMinCutSketch(n int, eps float64, seed uint64) *MinCutSketch {
	return &MinCutSketch{newLinear(mincut.New(mincut.Config{N: n, Epsilon: eps, Seed: seed}))}
}

// NewMinCutSketchK creates a min-cut sketch with an explicit connectivity
// parameter k (the witness keeps all cuts of size < k exact).
func NewMinCutSketchK(n, k int, seed uint64) *MinCutSketch {
	return &MinCutSketch{newLinear(mincut.New(mincut.Config{N: n, K: k, Seed: seed}))}
}

// Add merges a sketch built with the same parameters and seed.
func (m *MinCutSketch) Add(other *MinCutSketch) { m.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters in one
// occupancy-guided pass per bank; bit-identical to sequential Add calls.
func (m *MinCutSketch) MergeMany(others []*MinCutSketch) { m.sk.MergeMany(cores(others)) }

// Clone returns an independent copy that shares cells copy-on-write (the
// decode memo is not carried over; the clone recomputes MinCut on first
// call). Epoch-snapshot hook: clone under the writer (Clone marks the
// receiver, so it is a write), then query the clone while the original
// keeps ingesting.
func (m *MinCutSketch) Clone() *MinCutSketch { return &MinCutSketch{newLinear(m.sk.Clone())} }

// MinCut runs the Fig 1 post-processing. Decode is read-only on the sketch
// and cached: repeated calls return the same result until the sketch is
// updated again.
func (m *MinCutSketch) MinCut() (MinCutResult, error) { return m.sk.MinCut() }

// SetDecodeWorkers overrides MinCut's level-parallel decode worker count
// (0 restores the GOMAXPROCS default); the result is bit-identical for
// every setting.
func (m *MinCutSketch) SetDecodeWorkers(workers int) { m.sk.SetDecodeWorkers(workers) }

// ---------------------------------------------------------------------------
// Sparsification (Figs 2-3, Sec. 3.5)
// ---------------------------------------------------------------------------

// SimpleSparsifier is SIMPLE-SPARSIFICATION (Fig 2, Theorem 3.3).
type SimpleSparsifier struct {
	linear[sparsify.Simple, *sparsify.Simple]
}

// NewSimpleSparsifier creates a Fig 2 sketch targeting cut error eps.
func NewSimpleSparsifier(n int, eps float64, seed uint64) *SimpleSparsifier {
	return &SimpleSparsifier{newLinear(sparsify.NewSimple(sparsify.SimpleConfig{N: n, Epsilon: eps, Seed: seed}))}
}

// Add merges a sketch built with the same parameters and seed.
func (s *SimpleSparsifier) Add(other *SimpleSparsifier) { s.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters in one
// occupancy-guided pass per bank; bit-identical to sequential Add calls.
func (s *SimpleSparsifier) MergeMany(others []*SimpleSparsifier) { s.sk.MergeMany(cores(others)) }

// Clone returns an independent copy that shares cells copy-on-write (the
// decode memo is not carried over; the clone recomputes Sparsify on first
// call). Epoch-snapshot hook: clone under the writer (Clone marks the
// receiver, so it is a write), then query the clone while the original
// keeps ingesting.
func (s *SimpleSparsifier) Clone() *SimpleSparsifier {
	return &SimpleSparsifier{newLinear(s.sk.Clone())}
}

// Sparsify extracts the weighted sparsifier. Decode is read-only on the
// sketch and cached: repeated calls return the same graph (treat it as
// read-only).
func (s *SimpleSparsifier) Sparsify() (*Graph, error) { return s.sk.Sparsify() }

// SetDecodeWorkers overrides the worker count of Sparsify's level-parallel
// decode, witness extraction and k-connectivity class pass alike (0
// restores the GOMAXPROCS default); the graph is bit-identical for every
// setting.
func (s *SimpleSparsifier) SetDecodeWorkers(workers int) { s.sk.SetDecodeWorkers(workers) }

// Sparsifier is SPARSIFICATION (Fig 3, Theorem 3.4): rough sparsifier +
// Gomory-Hu guided sparse recovery. The paper's headline construction.
type Sparsifier struct {
	linear[sparsify.Sketch, *sparsify.Sketch]
}

// NewSparsifier creates a Fig 3 sketch targeting cut error eps.
func NewSparsifier(n int, eps float64, seed uint64) *Sparsifier {
	return &Sparsifier{newLinear(sparsify.New(sparsify.Config{N: n, Epsilon: eps, Seed: seed}))}
}

// Add merges a sketch built with the same parameters and seed.
func (s *Sparsifier) Add(other *Sparsifier) { s.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters: the rough
// sparsifiers bank by bank, the recovery banks node-occupancy-guided;
// bit-identical to sequential Add calls.
func (s *Sparsifier) MergeMany(others []*Sparsifier) { s.sk.MergeMany(cores(others)) }

// Sparsify extracts the weighted sparsifier. Decode is read-only on the
// sketch and cached: repeated calls return the same graph (treat it as
// read-only).
func (s *Sparsifier) Sparsify() (*Graph, error) { return s.sk.Sparsify() }

// SetDecodeWorkers overrides the worker count of the rough sparsifier's
// level-parallel decode, witness extraction and class pass alike (0
// restores the GOMAXPROCS default); the graph is bit-identical for every
// setting.
func (s *Sparsifier) SetDecodeWorkers(workers int) { s.sk.SetDecodeWorkers(workers) }

// WeightedSparsifier sparsifies weighted graphs by powers-of-two weight
// classes (Sec. 3.5, Theorem 3.8). |delta| of each update is the edge's
// weight.
type WeightedSparsifier struct {
	linear[sparsify.Weighted, *sparsify.Weighted]
}

// NewWeightedSparsifier creates a weighted sparsifier for weights in
// [1, maxWeight].
func NewWeightedSparsifier(n int, eps float64, maxWeight int64, seed uint64) *WeightedSparsifier {
	return &WeightedSparsifier{newLinear(sparsify.NewWeighted(sparsify.WeightedConfig{
		N: n, Epsilon: eps, MaxWeight: maxWeight, Seed: seed,
	}))}
}

// Add merges a sketch built with the same parameters and seed: the
// distributed-streams operation, classwise by linearity (Sec. 3.5).
func (w *WeightedSparsifier) Add(other *WeightedSparsifier) { w.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters class by
// class; bit-identical to sequential Add calls.
func (w *WeightedSparsifier) MergeMany(others []*WeightedSparsifier) { w.sk.MergeMany(cores(others)) }

// Sparsify extracts the weighted sparsifier. Decode is read-only on the
// sketch and cached: repeated calls return the same graph (treat it as
// read-only).
func (w *WeightedSparsifier) Sparsify() (*Graph, error) { return w.sk.Sparsify() }

// SetDecodeWorkers overrides each weight class's level-parallel decode
// worker count, witness extraction and class pass alike (0 restores the
// GOMAXPROCS default); the graph is bit-identical for every setting.
func (w *WeightedSparsifier) SetDecodeWorkers(workers int) { w.sk.SetDecodeWorkers(workers) }

// MaxCutError measures the worst relative cut error of h against g over
// singleton cuts and `random` pseudorandom bisections — the sparsifier
// quality metric used throughout the benches.
func MaxCutError(g, h *Graph, random int, seed uint64) float64 {
	return sparsify.MaxCutError(g, h, random, seed)
}

// ---------------------------------------------------------------------------
// Subgraph counting (Fig 4, Theorem 4.1)
// ---------------------------------------------------------------------------

// Pattern bitmaps for SubgraphSketch (see internal/core/subgraph for the
// pair-position encoding).
const (
	// PatternTriangle is K3 (order 3).
	PatternTriangle = subgraph.Triangle
	// PatternWedge is the 2-edge path on 3 vertices.
	PatternWedge = subgraph.Wedge
	// PatternFourClique is K4 (order 4).
	PatternFourClique = subgraph.FourClique
	// PatternFourCycle is C4 (order 4).
	PatternFourCycle = subgraph.FourCycle
	// PatternFourPath is P4 (order 4).
	PatternFourPath = subgraph.FourPath
	// PatternFourStar is K1,3 (order 4).
	PatternFourStar = subgraph.FourStar
)

// SubgraphSketch estimates gamma_H(G): the fraction of non-empty order-k
// induced subgraphs isomorphic to a pattern H, to additive eps with
// samples = ceil(1/eps^2).
type SubgraphSketch struct {
	linear[subgraph.Sketch, *subgraph.Sketch]
}

// NewSubgraphSketch creates a sketch for order-k patterns (2 <= k <= 5)
// drawing `samples` independent l0-samples of squash(X_G).
func NewSubgraphSketch(n, k, samples int, seed uint64) *SubgraphSketch {
	return &SubgraphSketch{newLinear(subgraph.New(n, k, samples, seed))}
}

// Add merges a sketch built with the same parameters and seed.
func (s *SubgraphSketch) Add(other *SubgraphSketch) { s.sk.Add(other.sk) }

// MergeMany folds k sketches in one occupancy-guided pass over the sample
// arena; bit-identical to sequential Add calls.
func (s *SubgraphSketch) MergeMany(others []*SubgraphSketch) { s.sk.MergeMany(cores(others)) }

// Gamma estimates gamma_H for a pattern bitmap; effective is the number of
// usable samples.
func (s *SubgraphSketch) Gamma(pattern uint64) (gamma float64, effective int) {
	return s.sk.GammaEstimate(pattern)
}

// Count estimates the absolute number of induced subgraphs isomorphic to
// the pattern.
func (s *SubgraphSketch) Count(pattern uint64) float64 { return s.sk.CountEstimate(pattern) }

// NonEmpty estimates the number of non-empty order-k induced subgraphs.
func (s *SubgraphSketch) NonEmpty() float64 { return s.sk.NonEmptyEstimate() }

// ExactTriangles counts triangles exactly (ground-truth baseline).
func ExactTriangles(g *Graph) int64 { return subgraph.CountTriangles(g) }

// ---------------------------------------------------------------------------
// Spanners (Sec. 5, adaptive sketches)
// ---------------------------------------------------------------------------

// SpannerResult reports a spanner with construction diagnostics.
type SpannerResult struct {
	// Spanner is the subgraph H with d_H <= stretch * d_G.
	Spanner *Graph
	// Passes is the number of stream passes (sketch batches) used.
	Passes int
	// StretchBound is the construction's guarantee.
	StretchBound float64
	// PhaseNanos is the wall time of each executed pass (plan sweep plus
	// decode), one entry per pass.
	PhaseNanos []int64
	// PlanEdges is the size of the coalesced pass plan: the distinct
	// surviving edges each pass sweeps, versus the raw update count a
	// scalar replay would re-filter every pass.
	PlanEdges int
}

func bsResult(r spanner.BSResult) SpannerResult {
	return SpannerResult{
		Spanner: r.Spanner, Passes: r.Passes, StretchBound: float64(r.StretchBound),
		PhaseNanos: r.PhaseNanos, PlanEdges: r.PlanEdges,
	}
}

func rcResult(r spanner.RCResult) SpannerResult {
	return SpannerResult{
		Spanner: r.Spanner, Passes: r.Passes, StretchBound: r.StretchBound,
		PhaseNanos: r.PhaseNanos, PlanEdges: r.PlanEdges,
	}
}

// BaswanaSenSpanner builds a (2k-1)-spanner in k passes over the stream.
// One-shot form of BaswanaSenSketch.
func BaswanaSenSpanner(st *Stream, k int, seed uint64) SpannerResult {
	return bsResult(spanner.BaswanaSen(st, k, seed))
}

// RecurseConnectSpanner builds a (k^{log2 5}-1)-spanner in ~log2(k) passes
// (Theorem 5.1). One-shot form of RecurseConnectSketch.
func RecurseConnectSpanner(st *Stream, k int, seed uint64) SpannerResult {
	return rcResult(spanner.RecurseConnect(st, k, seed))
}

// spannerBuilder is a reusable multi-pass spanner construction.
type spannerBuilder[R any] interface {
	Build(st *stream.Stream) R
	SetIngestWorkers(w int)
	SetDecodeWorkers(w int)
	Footprint() sketchcore.Footprint
}

// spannerLog is the shared core of the incremental spanner sketches. The
// adaptive constructions are multi-pass, so the stream must be replayable
// (Definition 2's r-adaptive sketching model): it keeps the update log,
// builds on demand, and memoizes the result until the next update. The log
// is re-coalesced whenever it has doubled since the last coalesce, so it
// never holds more than twice the most edges live at once, whatever the
// stream's length; every builder coalesces its input first, so this is
// bit-neutral by linearity.
type spannerLog[R any] struct {
	bld       spannerBuilder[R]
	result    func(R) SpannerResult
	st        stream.Stream
	coalesced int // length of the log right after its last coalesce
	res       *SpannerResult
}

// Update appends a signed multiplicity change to edge {u, v} and
// invalidates the memoized spanner.
func (s *spannerLog[R]) Update(u, v int, delta int64) {
	s.UpdateBatch([]Update{{U: u, V: v, Delta: delta}})
}

// UpdateBatch appends a slice of updates and invalidates the memoized
// spanner.
func (s *spannerLog[R]) UpdateBatch(ups []Update) {
	s.st.Updates = append(s.st.Updates, ups...)
	s.res = nil
	if len(s.st.Updates) >= 2*s.coalesced {
		s.st.Updates = s.st.Coalesce().Updates
		s.coalesced = len(s.st.Updates)
	}
}

// Ingest appends a whole stream.
func (s *spannerLog[R]) Ingest(st *Stream) { s.UpdateBatch(st.Updates) }

// SetIngestWorkers splits each pass's plan sweep into w slot-owned ranges
// (0 = GOMAXPROCS; bit-identical for every setting).
func (s *spannerLog[R]) SetIngestWorkers(w int) { s.bld.SetIngestWorkers(w) }

// SetDecodeWorkers fans each pass's decode (BASWANA-SEN's retirement
// decode, RECURSECONNECT's per-supernode collection) across w goroutines
// (0 restores the GOMAXPROCS default; bit-identical for every setting).
func (s *spannerLog[R]) SetDecodeWorkers(w int) { s.bld.SetDecodeWorkers(w) }

// Build constructs the spanner for the accumulated stream. The result is
// memoized: repeated calls without intervening updates return the same
// value (treat the graph as read-only).
func (s *spannerLog[R]) Build() SpannerResult {
	if s.res == nil {
		r := s.result(s.bld.Build(&s.st))
		s.res = &r
	}
	return *s.res
}

// Footprint reports the space of the retained construction arenas and
// banks, which are allocated once and reseeded pass to pass and build to
// build.
func (s *spannerLog[R]) Footprint() Footprint { return s.bld.Footprint() }

// BaswanaSenSketch is the incremental form of the Sec. 5 BASWANA-SEN
// emulation. The construction is multi-pass, so the sketch keeps a
// replayable update log (Definition 2's r-adaptive sketching model),
// coalesced as it grows, and builds the (2k-1)-spanner on demand, memoized
// until the next update.
type BaswanaSenSketch struct{ spannerLog[spanner.BSResult] }

// NewBaswanaSenSketch creates a spanner sketch for n vertices with pass
// count k (stretch 2k-1).
func NewBaswanaSenSketch(n, k int, seed uint64) *BaswanaSenSketch {
	return &BaswanaSenSketch{spannerLog[spanner.BSResult]{
		bld: spanner.NewBSBuilder(n, k, seed), result: bsResult, st: stream.Stream{N: n},
	}}
}

// RecurseConnectSketch is the incremental form of RECURSECONNECT
// (Theorem 5.1): log k passes at stretch k^{log2 5}-1, with the update log,
// memoization, and arena reuse of BaswanaSenSketch.
type RecurseConnectSketch struct{ spannerLog[spanner.RCResult] }

// NewRecurseConnectSketch creates a spanner sketch for n vertices with
// stretch parameter k.
func NewRecurseConnectSketch(n, k int, seed uint64) *RecurseConnectSketch {
	return &RecurseConnectSketch{spannerLog[spanner.RCResult]{
		bld: spanner.NewRCBuilder(n, k, seed), result: rcResult, st: stream.Stream{N: n},
	}}
}

// MeasureStretch returns the worst observed distance ratio d_H/d_G over
// BFS from `sources` random roots (+Inf if H fails to span G).
func MeasureStretch(g, h *Graph, sources int, seed uint64) float64 {
	return spanner.MeasureStretch(g, h, sources, seed)
}
