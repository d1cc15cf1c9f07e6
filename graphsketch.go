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
// Every constructor takes an explicit seed; two sketches built with the
// same parameters and seed are mergeable with Add and behave identically on
// identical final graphs regardless of update order.
package graphsketch

import (
	"errors"
	"fmt"

	"graphsketch/internal/agm"
	"graphsketch/internal/core/mincut"
	"graphsketch/internal/core/spanner"
	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/core/subgraph"
	"graphsketch/internal/graph"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// Footprint is the space report every sketch exposes: resident bytes, cell
// occupancy (total vs non-zero), and serialized size. The wire encoding
// costs bytes proportional to the non-zero state, which is what a
// distributed site actually ships (Sec. 1.1).
type Footprint = sketchcore.Footprint

// Digest is a bank's linear integrity digest: one part over the cells'
// int64 counts mod 2^64, one over their fingerprints mod 2^61-1. Every
// write path keeps it current by adding the digest of what it writes, so
// reading it costs O(arenas), and the digest of a sum of states is the sum
// of their digests.
type Digest = sketchcore.Digest

// Each sketch serializes with MarshalBinaryCompact (zero-run-length +
// varint cells, size proportional to non-zero state); UnmarshalBinary and
// MergeBytes read that encoding.

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
// all satisfy errors.Is(err, ErrBadEncoding). No payload content, however
// malformed, panics these entry points — corrupt bytes are an input
// condition, not a programmer error.
var ErrBadEncoding = errors.New("graphsketch: bad encoding")

// wrapBadEncoding routes an internal decode/merge error into the facade
// sentinel, preserving the detailed message.
func wrapBadEncoding(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrBadEncoding, err)
}

// ---------------------------------------------------------------------------
// Connectivity & bipartiteness (the [4] primitives, Theorem 2.3 substrate)
// ---------------------------------------------------------------------------

// ConnectivitySketch answers connectivity queries about a dynamic graph
// stream using O(n polylog n) space.
type ConnectivitySketch struct{ fs *agm.ForestSketch }

// NewConnectivitySketch creates a connectivity sketch for n vertices.
func NewConnectivitySketch(n int, seed uint64) *ConnectivitySketch {
	return &ConnectivitySketch{fs: agm.NewForestSketch(n, seed)}
}

// Update applies a signed multiplicity change to edge {u, v}.
func (c *ConnectivitySketch) Update(u, v int, delta int64) { c.fs.Update(u, v, delta) }

// Ingest replays a whole stream.
func (c *ConnectivitySketch) Ingest(s *Stream) { c.fs.Ingest(s) }

// UpdateBatch applies a slice of updates through the batched kernels
// (bit-identical to the same Update calls, with per-edge hashing hoisted).
func (c *ConnectivitySketch) UpdateBatch(ups []Update) { c.fs.UpdateBatch(ups) }

// IngestParallel replays a stream with workers applying each staged
// batch to independent sampler banks in parallel; bit-identical to
// Ingest. workers <= 0 defaults to GOMAXPROCS.
func (c *ConnectivitySketch) IngestParallel(s *Stream, workers int) { c.fs.IngestParallel(s, workers) }

// Add merges a sketch built with the same (n, seed).
func (c *ConnectivitySketch) Add(other *ConnectivitySketch) { c.fs.Add(other.fs) }

// MergeMany folds k sketches built with the same (n, seed) in one
// occupancy-guided pass per sampler bank — the coordinator aggregation
// step, bit-identical to sequential pairwise Add calls.
func (c *ConnectivitySketch) MergeMany(others []*ConnectivitySketch) {
	srcs := make([]*agm.ForestSketch, len(others))
	for i, o := range others {
		srcs[i] = o.fs
	}
	c.fs.MergeMany(srcs)
}

// Clone returns a deep, independent copy: updating either sketch never
// perturbs the other. This is the epoch-snapshot hook the concurrent
// service uses — clone under the writer, query the clone concurrently.
func (c *ConnectivitySketch) Clone() *ConnectivitySketch {
	return &ConnectivitySketch{fs: c.fs.Clone()}
}

// MarshalBinaryCompact serializes in the compact AGM3 format: bytes
// proportional to the sketch's non-zero state.
func (c *ConnectivitySketch) MarshalBinaryCompact() ([]byte, error) {
	return c.fs.MarshalBinaryCompact()
}

// UnmarshalBinary reconstructs the sketch from its wire form.
func (c *ConnectivitySketch) UnmarshalBinary(data []byte) error {
	if c.fs == nil {
		c.fs = &agm.ForestSketch{}
	}
	return wrapBadEncoding(c.fs.UnmarshalBinary(data))
}

// MergeBytes folds a serialized sketch (same n and seed)
// directly into c without materializing a second sketch — the wire-level
// coordinator merge.
// On error the destination may already hold a partially folded
// prefix of the payload — discard the sketch rather than retrying the
// same bytes, or the prefix double-counts.
func (c *ConnectivitySketch) MergeBytes(data []byte) error {
	if c.fs == nil {
		return errUninitializedMerge
	}
	return wrapBadEncoding(c.fs.MergeBinary(data))
}

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (c *ConnectivitySketch) Footprint() Footprint { return c.fs.Footprint() }

// Connected reports whether the sketched graph is connected.
func (c *ConnectivitySketch) Connected() bool { return c.fs.IsConnected() }

// Components returns the number of connected components.
func (c *ConnectivitySketch) Components() int { return c.fs.ComponentCount() }

// SpanningForest extracts a spanning forest (edges carry multiplicities).
func (c *ConnectivitySketch) SpanningForest() []Edge { return c.fs.SpanningForest() }

// BipartitenessSketch decides bipartiteness of a dynamic graph stream via
// the double-cover reduction.
type BipartitenessSketch struct{ bs *agm.BipartitenessSketch }

// NewBipartitenessSketch creates a bipartiteness sketch for n vertices.
func NewBipartitenessSketch(n int, seed uint64) *BipartitenessSketch {
	return &BipartitenessSketch{bs: agm.NewBipartitenessSketch(n, seed)}
}

// Update applies a signed multiplicity change to edge {u, v}.
func (b *BipartitenessSketch) Update(u, v int, delta int64) { b.bs.Update(u, v, delta) }

// Ingest replays a whole stream.
func (b *BipartitenessSketch) Ingest(s *Stream) { b.bs.Ingest(s) }

// UpdateBatch applies a slice of updates through the batched kernels.
func (b *BipartitenessSketch) UpdateBatch(ups []Update) { b.bs.UpdateBatch(ups) }

// IngestParallel replays a stream sharded across worker goroutines and
// merges by linearity; bit-identical to Ingest.
func (b *BipartitenessSketch) IngestParallel(s *Stream, workers int) { b.bs.IngestParallel(s, workers) }

// Bipartite reports whether the sketched graph is bipartite.
func (b *BipartitenessSketch) Bipartite() bool { return b.bs.IsBipartite() }

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (b *BipartitenessSketch) Footprint() Footprint { return b.bs.Footprint() }

// MSTSketch approximates a minimum-weight spanning forest of a weighted
// dynamic stream (|delta| carries the edge weight) — the remaining [4]
// primitive. The weight is within a factor 2 of optimal (powers-of-two
// class granularity); sampled edges report their true weights.
type MSTSketch struct{ sk *agm.MSTSketch }

// NewMSTSketch creates an MST sketch for weights in [1, maxWeight].
func NewMSTSketch(n int, maxWeight int64, seed uint64) *MSTSketch {
	return &MSTSketch{sk: agm.NewMSTSketch(n, maxWeight, seed)}
}

// Update applies a signed weighted change to edge {u, v}.
func (m *MSTSketch) Update(u, v int, delta int64) { m.sk.Update(u, v, delta) }

// Ingest replays a whole stream.
func (m *MSTSketch) Ingest(s *Stream) { m.sk.Ingest(s) }

// UpdateBatch applies a slice of weighted updates through the batched
// kernels (class-sorted, then replayed bank by bank).
func (m *MSTSketch) UpdateBatch(ups []Update) { m.sk.UpdateBatch(ups) }

// IngestParallel replays a stream sharded across worker goroutines and
// merges by linearity; bit-identical to Ingest.
func (m *MSTSketch) IngestParallel(s *Stream, workers int) { m.sk.IngestParallel(s, workers) }

// Add merges a sketch built with the same parameters and seed.
func (m *MSTSketch) Add(other *MSTSketch) { m.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters in one
// occupancy-guided pass per bank; bit-identical to sequential Add calls.
func (m *MSTSketch) MergeMany(others []*MSTSketch) {
	srcs := make([]*agm.MSTSketch, len(others))
	for i, o := range others {
		srcs[i] = o.sk
	}
	m.sk.MergeMany(srcs)
}

// MarshalBinaryCompact serializes with bytes proportional to the non-zero
// state.
func (m *MSTSketch) MarshalBinaryCompact() ([]byte, error) { return m.sk.MarshalBinaryCompact() }

// UnmarshalBinary reconstructs the sketch from its wire form.
func (m *MSTSketch) UnmarshalBinary(data []byte) error {
	if m.sk == nil {
		m.sk = &agm.MSTSketch{}
	}
	return wrapBadEncoding(m.sk.UnmarshalBinary(data))
}

// MergeBytes folds a serialized sketch (same parameters) directly into m.
// On error the destination may already hold a partially folded
// prefix of the payload — discard the sketch rather than retrying the
// same bytes, or the prefix double-counts.
func (m *MSTSketch) MergeBytes(data []byte) error {
	if m.sk == nil {
		return errUninitializedMerge
	}
	return wrapBadEncoding(m.sk.MergeBinary(data))
}

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (m *MSTSketch) Footprint() Footprint { return m.sk.Footprint() }

// ApproxMSF extracts the approximate minimum spanning forest and its
// total weight.
func (m *MSTSketch) ApproxMSF() ([]Edge, int64) { return m.sk.ApproxMSF() }

// ---------------------------------------------------------------------------
// Minimum cut (Fig 1, Theorem 3.2)
// ---------------------------------------------------------------------------

// MinCutSketch is the single-pass (1+eps)-approximate minimum cut sketch.
type MinCutSketch struct{ sk *mincut.Sketch }

// MinCutResult reports the estimate and diagnostics.
type MinCutResult = mincut.Result

// NewMinCutSketch creates a min-cut sketch for n vertices targeting
// relative error eps (eps <= 0 defaults to 0.5).
func NewMinCutSketch(n int, eps float64, seed uint64) *MinCutSketch {
	return &MinCutSketch{sk: mincut.New(mincut.Config{N: n, Epsilon: eps, Seed: seed})}
}

// NewMinCutSketchK creates a min-cut sketch with an explicit connectivity
// parameter k (the witness keeps all cuts of size < k exact).
func NewMinCutSketchK(n, k int, seed uint64) *MinCutSketch {
	return &MinCutSketch{sk: mincut.New(mincut.Config{N: n, K: k, Seed: seed})}
}

// Update applies a signed multiplicity change to edge {u, v}.
func (m *MinCutSketch) Update(u, v int, delta int64) { m.sk.Update(u, v, delta) }

// Ingest replays a whole stream.
func (m *MinCutSketch) Ingest(s *Stream) { m.sk.Ingest(s) }

// UpdateBatch applies a slice of updates through the batched kernels
// (level-sorted, then replayed level sketch by level sketch).
func (m *MinCutSketch) UpdateBatch(ups []Update) { m.sk.UpdateBatch(ups) }

// IngestParallel replays a stream sharded across worker goroutines and
// merges by linearity; bit-identical to Ingest.
func (m *MinCutSketch) IngestParallel(s *Stream, workers int) { m.sk.IngestParallel(s, workers) }

// Add merges a sketch built with the same parameters and seed.
func (m *MinCutSketch) Add(other *MinCutSketch) { m.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters in one
// occupancy-guided pass per bank; bit-identical to sequential Add calls.
func (m *MinCutSketch) MergeMany(others []*MinCutSketch) {
	srcs := make([]*mincut.Sketch, len(others))
	for i, o := range others {
		srcs[i] = o.sk
	}
	m.sk.MergeMany(srcs)
}

// Clone returns a deep, independent copy (the decode memo is not carried
// over; the clone recomputes MinCut on first call). Epoch-snapshot hook:
// queries run on the clone while the original keeps ingesting.
func (m *MinCutSketch) Clone() *MinCutSketch { return &MinCutSketch{sk: m.sk.Clone()} }

// MarshalBinaryCompact serializes with bytes proportional to the non-zero
// state — the per-site coordinator payload.
func (m *MinCutSketch) MarshalBinaryCompact() ([]byte, error) { return m.sk.MarshalBinaryCompact() }

// UnmarshalBinary reconstructs the sketch from its wire form.
func (m *MinCutSketch) UnmarshalBinary(data []byte) error {
	if m.sk == nil {
		m.sk = &mincut.Sketch{}
	}
	return wrapBadEncoding(m.sk.UnmarshalBinary(data))
}

// MergeBytes folds a serialized sketch (same config) directly into m
// without materializing a second sketch.
// On error the destination may already hold a partially folded
// prefix of the payload — discard the sketch rather than retrying the
// same bytes, or the prefix double-counts.
func (m *MinCutSketch) MergeBytes(data []byte) error {
	if m.sk == nil {
		return errUninitializedMerge
	}
	return wrapBadEncoding(m.sk.MergeBinary(data))
}

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (m *MinCutSketch) Footprint() Footprint { return m.sk.Footprint() }

// MinCut runs the Fig 1 post-processing. Decode is read-only on the sketch
// and cached: repeated calls return the same result until the sketch is
// updated again.
func (m *MinCutSketch) MinCut() (MinCutResult, error) { return m.sk.MinCut() }

// SetDecodeWorkers overrides MinCut's level-parallel decode worker count
// (0 restores the GOMAXPROCS default); the result is bit-identical for
// every setting.
func (m *MinCutSketch) SetDecodeWorkers(workers int) { m.sk.SetDecodeWorkers(workers) }

// NumBanks reports the sketch's digestable bank count (one per subsampling
// level) — the granularity the service's digest tree and delta sync
// address.
func (m *MinCutSketch) NumBanks() int { return m.sk.NumBanks() }

// AppendBank appends one level bank's compact tagged state: exactly the
// bytes MarshalBinaryCompact writes for that level, so per-bank digests
// cover the full compact payload body.
func (m *MinCutSketch) AppendBank(buf []byte, bank int) ([]byte, error) {
	out, err := m.sk.AppendBankState(buf, bank)
	return out, wrapBadEncoding(err)
}

// ReplaceBank replaces one level bank's contents with compact state bytes
// produced by AppendBank on a same-config sketch. Banks are headerless;
// callers must verify the assembled state (digest root) before trusting a
// bank-wise install.
func (m *MinCutSketch) ReplaceBank(bank int, data []byte) error {
	return wrapBadEncoding(m.sk.ReplaceBankState(bank, data))
}

// MergeBank folds compact bank bytes produced by AppendBank on a
// same-config sketch into one level bank (states add by linearity).
func (m *MinCutSketch) MergeBank(bank int, data []byte) error {
	return wrapBadEncoding(m.sk.MergeBankState(bank, data))
}

// BankDigest returns one level bank's maintained digest; bank must be in
// [0, NumBanks()). It covers exactly the cells AppendBank encodes.
func (m *MinCutSketch) BankDigest(bank int) Digest {
	return sketchcore.SumDigests(m.sk.BankArenas(bank))
}

// ScanBankDigest recomputes one level bank's digest from its cells, leaving
// the maintained one alone: the two differ only if the cells changed
// behind the sketch's back.
func (m *MinCutSketch) ScanBankDigest(bank int) Digest {
	return sketchcore.ScanDigests(m.sk.BankArenas(bank))
}

// RescanDigests resets every maintained digest to the one scanned from the
// cells.
func (m *MinCutSketch) RescanDigests() { rescanBanks(m.sk.NumBanks(), m.sk.BankArenas) }

// RotBank folds compact bank bytes into one level bank WITHOUT moving its
// maintained digest: silent memory rot, for integrity tests only.
func (m *MinCutSketch) RotBank(bank int, data []byte) error {
	return sketchcore.WithoutDigest(m.sk.BankArenas(bank), func() error { return m.MergeBank(bank, data) })
}

// rescanBanks resets the maintained digest of every arena of every bank.
func rescanBanks(banks int, arenas func(int) []*sketchcore.Arena) {
	for bank := 0; bank < banks; bank++ {
		for _, a := range arenas(bank) {
			a.RescanDigest()
		}
	}
}

// ---------------------------------------------------------------------------
// Sparsification (Figs 2-3, Sec. 3.5)
// ---------------------------------------------------------------------------

// SimpleSparsifier is SIMPLE-SPARSIFICATION (Fig 2, Theorem 3.3).
type SimpleSparsifier struct{ sk *sparsify.Simple }

// NewSimpleSparsifier creates a Fig 2 sketch targeting cut error eps.
func NewSimpleSparsifier(n int, eps float64, seed uint64) *SimpleSparsifier {
	return &SimpleSparsifier{sk: sparsify.NewSimple(sparsify.SimpleConfig{N: n, Epsilon: eps, Seed: seed})}
}

// Update applies a signed multiplicity change to edge {u, v}.
func (s *SimpleSparsifier) Update(u, v int, delta int64) { s.sk.Update(u, v, delta) }

// Ingest replays a whole stream.
func (s *SimpleSparsifier) Ingest(st *Stream) { s.sk.Ingest(st) }

// UpdateBatch applies a slice of updates through the batched kernels.
func (s *SimpleSparsifier) UpdateBatch(ups []Update) { s.sk.UpdateBatch(ups) }

// IngestParallel replays a stream sharded across worker goroutines and
// merges by linearity; bit-identical to Ingest.
func (s *SimpleSparsifier) IngestParallel(st *Stream, workers int) { s.sk.IngestParallel(st, workers) }

// Add merges a sketch built with the same parameters and seed.
func (s *SimpleSparsifier) Add(other *SimpleSparsifier) { s.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters in one
// occupancy-guided pass per bank; bit-identical to sequential Add calls.
func (s *SimpleSparsifier) MergeMany(others []*SimpleSparsifier) {
	srcs := make([]*sparsify.Simple, len(others))
	for i, o := range others {
		srcs[i] = o.sk
	}
	s.sk.MergeMany(srcs)
}

// Clone returns a deep, independent copy (the decode memo is not carried
// over; the clone recomputes Sparsify on first call). Epoch-snapshot hook:
// queries run on the clone while the original keeps ingesting.
func (s *SimpleSparsifier) Clone() *SimpleSparsifier {
	return &SimpleSparsifier{sk: s.sk.Clone()}
}

// MarshalBinaryCompact serializes with bytes proportional to the non-zero
// state.
func (s *SimpleSparsifier) MarshalBinaryCompact() ([]byte, error) {
	return s.sk.MarshalBinaryCompact()
}

// UnmarshalBinary reconstructs the sketch from its wire form.
func (s *SimpleSparsifier) UnmarshalBinary(data []byte) error {
	if s.sk == nil {
		s.sk = &sparsify.Simple{}
	}
	return wrapBadEncoding(s.sk.UnmarshalBinary(data))
}

// MergeBytes folds a serialized sketch (same config) directly into s.
// On error the destination may already hold a partially folded
// prefix of the payload — discard the sketch rather than retrying the
// same bytes, or the prefix double-counts.
func (s *SimpleSparsifier) MergeBytes(data []byte) error {
	if s.sk == nil {
		return errUninitializedMerge
	}
	return wrapBadEncoding(s.sk.MergeBinary(data))
}

// NumBanks reports the sketch's digestable bank count (one per sampling
// level); see MinCutSketch.NumBanks.
func (s *SimpleSparsifier) NumBanks() int { return s.sk.NumBanks() }

// AppendBank appends one level bank's compact tagged state; see
// MinCutSketch.AppendBank.
func (s *SimpleSparsifier) AppendBank(buf []byte, bank int) ([]byte, error) {
	out, err := s.sk.AppendBankState(buf, bank)
	return out, wrapBadEncoding(err)
}

// ReplaceBank replaces one level bank's contents; see
// MinCutSketch.ReplaceBank for the trust contract.
func (s *SimpleSparsifier) ReplaceBank(bank int, data []byte) error {
	return wrapBadEncoding(s.sk.ReplaceBankState(bank, data))
}

// MergeBank folds compact bank bytes produced by AppendBank on a
// same-config sketch into one level bank; see MinCutSketch.MergeBank.
func (s *SimpleSparsifier) MergeBank(bank int, data []byte) error {
	return wrapBadEncoding(s.sk.MergeBankState(bank, data))
}

// BankDigest returns one level bank's maintained digest; see
// MinCutSketch.BankDigest.
func (s *SimpleSparsifier) BankDigest(bank int) Digest {
	return sketchcore.SumDigests(s.sk.BankArenas(bank))
}

// ScanBankDigest recomputes one level bank's digest from its cells; see
// MinCutSketch.ScanBankDigest.
func (s *SimpleSparsifier) ScanBankDigest(bank int) Digest {
	return sketchcore.ScanDigests(s.sk.BankArenas(bank))
}

// RescanDigests resets every maintained digest to the one scanned from the
// cells.
func (s *SimpleSparsifier) RescanDigests() { rescanBanks(s.sk.NumBanks(), s.sk.BankArenas) }

// RotBank folds compact bank bytes into one level bank without moving its
// maintained digest; see MinCutSketch.RotBank.
func (s *SimpleSparsifier) RotBank(bank int, data []byte) error {
	return sketchcore.WithoutDigest(s.sk.BankArenas(bank), func() error { return s.MergeBank(bank, data) })
}

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (s *SimpleSparsifier) Footprint() Footprint { return s.sk.Footprint() }

// Sparsify extracts the weighted sparsifier. Decode is read-only on the
// sketch and cached: repeated calls return the same graph (treat it as
// read-only).
func (s *SimpleSparsifier) Sparsify() (*Graph, error) { return s.sk.Sparsify() }

// SetDecodeWorkers overrides Sparsify's level-parallel extraction worker
// count (0 restores the GOMAXPROCS default); the graph is bit-identical
// for every setting.
func (s *SimpleSparsifier) SetDecodeWorkers(workers int) { s.sk.SetDecodeWorkers(workers) }

// Sparsifier is SPARSIFICATION (Fig 3, Theorem 3.4): rough sparsifier +
// Gomory-Hu guided sparse recovery. The paper's headline construction.
type Sparsifier struct{ sk *sparsify.Sketch }

// NewSparsifier creates a Fig 3 sketch targeting cut error eps.
func NewSparsifier(n int, eps float64, seed uint64) *Sparsifier {
	return &Sparsifier{sk: sparsify.New(sparsify.Config{N: n, Epsilon: eps, Seed: seed})}
}

// Update applies a signed multiplicity change to edge {u, v}.
func (s *Sparsifier) Update(u, v int, delta int64) { s.sk.Update(u, v, delta) }

// Ingest replays a whole stream.
func (s *Sparsifier) Ingest(st *Stream) { s.sk.Ingest(st) }

// UpdateBatch applies a slice of updates through the batched kernels.
func (s *Sparsifier) UpdateBatch(ups []Update) { s.sk.UpdateBatch(ups) }

// IngestParallel replays a stream sharded across worker goroutines and
// merges by linearity; bit-identical to Ingest.
func (s *Sparsifier) IngestParallel(st *Stream, workers int) { s.sk.IngestParallel(st, workers) }

// Add merges a sketch built with the same parameters and seed.
func (s *Sparsifier) Add(other *Sparsifier) { s.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters: the rough
// sparsifiers bank by bank, the recovery banks node-occupancy-guided;
// bit-identical to sequential Add calls.
func (s *Sparsifier) MergeMany(others []*Sparsifier) {
	srcs := make([]*sparsify.Sketch, len(others))
	for i, o := range others {
		srcs[i] = o.sk
	}
	s.sk.MergeMany(srcs)
}

// MarshalBinaryCompact serializes with bytes proportional to the non-zero
// state — the per-site coordinator payload of the paper's headline
// construction.
func (s *Sparsifier) MarshalBinaryCompact() ([]byte, error) { return s.sk.MarshalBinaryCompact() }

// UnmarshalBinary reconstructs the sketch from its wire form.
func (s *Sparsifier) UnmarshalBinary(data []byte) error {
	if s.sk == nil {
		s.sk = &sparsify.Sketch{}
	}
	return wrapBadEncoding(s.sk.UnmarshalBinary(data))
}

// MergeBytes folds a serialized sketch (same config) directly into s.
// On error the destination may already hold a partially folded
// prefix of the payload — discard the sketch rather than retrying the
// same bytes, or the prefix double-counts.
func (s *Sparsifier) MergeBytes(data []byte) error {
	if s.sk == nil {
		return errUninitializedMerge
	}
	return wrapBadEncoding(s.sk.MergeBinary(data))
}

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (s *Sparsifier) Footprint() Footprint { return s.sk.Footprint() }

// Sparsify extracts the weighted sparsifier. Decode is read-only on the
// sketch and cached: repeated calls return the same graph (treat it as
// read-only).
func (s *Sparsifier) Sparsify() (*Graph, error) { return s.sk.Sparsify() }

// SetDecodeWorkers overrides the rough sparsifier's level-parallel
// extraction worker count (0 restores the GOMAXPROCS default); the graph
// is bit-identical for every setting.
func (s *Sparsifier) SetDecodeWorkers(workers int) { s.sk.SetDecodeWorkers(workers) }

// WeightedSparsifier sparsifies weighted graphs by powers-of-two weight
// classes (Sec. 3.5, Theorem 3.8). |delta| of each update is the edge's
// weight.
type WeightedSparsifier struct{ sk *sparsify.Weighted }

// NewWeightedSparsifier creates a weighted sparsifier for weights in
// [1, maxWeight].
func NewWeightedSparsifier(n int, eps float64, maxWeight int64, seed uint64) *WeightedSparsifier {
	return &WeightedSparsifier{sk: sparsify.NewWeighted(sparsify.WeightedConfig{
		N: n, Epsilon: eps, MaxWeight: maxWeight, Seed: seed,
	})}
}

// Update applies a signed weighted change to edge {u, v}.
func (w *WeightedSparsifier) Update(u, v int, delta int64) { w.sk.Update(u, v, delta) }

// Ingest replays a whole stream.
func (w *WeightedSparsifier) Ingest(st *Stream) { w.sk.Ingest(st) }

// UpdateBatch applies a slice of weighted updates through the batched
// kernels (class-sorted, then replayed class by class).
func (w *WeightedSparsifier) UpdateBatch(ups []Update) { w.sk.UpdateBatch(ups) }

// IngestParallel replays a stream sharded across worker goroutines and
// merges by linearity; bit-identical to Ingest.
func (w *WeightedSparsifier) IngestParallel(st *Stream, workers int) {
	w.sk.IngestParallel(st, workers)
}

// Add merges a sketch built with the same parameters and seed: the
// distributed-streams operation, classwise by linearity (Sec. 3.5).
func (w *WeightedSparsifier) Add(other *WeightedSparsifier) { w.sk.Add(other.sk) }

// MergeMany folds k sketches built with the same parameters class by
// class; bit-identical to sequential Add calls.
func (w *WeightedSparsifier) MergeMany(others []*WeightedSparsifier) {
	srcs := make([]*sparsify.Weighted, len(others))
	for i, o := range others {
		srcs[i] = o.sk
	}
	w.sk.MergeMany(srcs)
}

// MarshalBinaryCompact serializes with bytes proportional to the non-zero
// state.
func (w *WeightedSparsifier) MarshalBinaryCompact() ([]byte, error) {
	return w.sk.MarshalBinaryCompact()
}

// UnmarshalBinary reconstructs the sketch from its wire form.
func (w *WeightedSparsifier) UnmarshalBinary(data []byte) error {
	if w.sk == nil {
		w.sk = &sparsify.Weighted{}
	}
	return wrapBadEncoding(w.sk.UnmarshalBinary(data))
}

// MergeBytes folds a serialized sketch (same config) directly into w.
// On error the destination may already hold a partially folded
// prefix of the payload — discard the sketch rather than retrying the
// same bytes, or the prefix double-counts.
func (w *WeightedSparsifier) MergeBytes(data []byte) error {
	if w.sk == nil {
		return errUninitializedMerge
	}
	return wrapBadEncoding(w.sk.MergeBinary(data))
}

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (w *WeightedSparsifier) Footprint() Footprint { return w.sk.Footprint() }

// Sparsify extracts the weighted sparsifier. Decode is read-only on the
// sketch and cached: repeated calls return the same graph (treat it as
// read-only).
func (w *WeightedSparsifier) Sparsify() (*Graph, error) { return w.sk.Sparsify() }

// SetDecodeWorkers overrides each weight class's level-parallel extraction
// worker count (0 restores the GOMAXPROCS default); the graph is
// bit-identical for every setting.
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
type SubgraphSketch struct{ sk *subgraph.Sketch }

// NewSubgraphSketch creates a sketch for order-k patterns (2 <= k <= 5)
// drawing `samples` independent l0-samples of squash(X_G).
func NewSubgraphSketch(n, k, samples int, seed uint64) *SubgraphSketch {
	return &SubgraphSketch{sk: subgraph.New(n, k, samples, seed)}
}

// Update applies a signed multiplicity change to edge {u, v}.
func (s *SubgraphSketch) Update(u, v int, delta int64) { s.sk.Update(u, v, delta) }

// Ingest replays a whole stream.
func (s *SubgraphSketch) Ingest(st *Stream) { s.sk.Ingest(st) }

// UpdateBatch applies a slice of updates through the sketch-side replay.
func (s *SubgraphSketch) UpdateBatch(ups []Update) { s.sk.UpdateBatch(ups) }

// IngestParallel replays a stream sharded across worker goroutines and
// merges by linearity; bit-identical to Ingest.
func (s *SubgraphSketch) IngestParallel(st *Stream, workers int) { s.sk.IngestParallel(st, workers) }

// Add merges a sketch built with the same parameters and seed.
func (s *SubgraphSketch) Add(other *SubgraphSketch) { s.sk.Add(other.sk) }

// MergeMany folds k sketches in one occupancy-guided pass over the sample
// arena; bit-identical to sequential Add calls.
func (s *SubgraphSketch) MergeMany(others []*SubgraphSketch) {
	srcs := make([]*subgraph.Sketch, len(others))
	for i, o := range others {
		srcs[i] = o.sk
	}
	s.sk.MergeMany(srcs)
}

// MarshalBinaryCompact serializes with bytes proportional to the non-zero
// state.
func (s *SubgraphSketch) MarshalBinaryCompact() ([]byte, error) {
	return s.sk.MarshalBinaryCompact()
}

// UnmarshalBinary reconstructs the sketch from its wire form.
func (s *SubgraphSketch) UnmarshalBinary(data []byte) error {
	if s.sk == nil {
		s.sk = &subgraph.Sketch{}
	}
	return wrapBadEncoding(s.sk.UnmarshalBinary(data))
}

// MergeBytes folds a serialized sketch (same parameters) directly into s.
// On error the destination may already hold a partially folded
// prefix of the payload — discard the sketch rather than retrying the
// same bytes, or the prefix double-counts.
func (s *SubgraphSketch) MergeBytes(data []byte) error {
	if s.sk == nil {
		return errUninitializedMerge
	}
	return wrapBadEncoding(s.sk.MergeBinary(data))
}

// Footprint reports resident bytes, cell occupancy, and wire bytes.
func (s *SubgraphSketch) Footprint() Footprint { return s.sk.Footprint() }

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

// BaswanaSenSpanner builds a (2k-1)-spanner in k passes over the stream.
// One-shot form of BaswanaSenSketch.
func BaswanaSenSpanner(st *Stream, k int, seed uint64) SpannerResult {
	r := spanner.BaswanaSen(st, k, seed)
	return SpannerResult{
		Spanner: r.Spanner, Passes: r.Passes, StretchBound: float64(r.StretchBound),
		PhaseNanos: r.PhaseNanos, PlanEdges: r.PlanEdges,
	}
}

// RecurseConnectSpanner builds a (k^{log2 5}-1)-spanner in ~log2(k) passes
// (Theorem 5.1). One-shot form of RecurseConnectSketch.
func RecurseConnectSpanner(st *Stream, k int, seed uint64) SpannerResult {
	r := spanner.RecurseConnect(st, k, seed)
	return SpannerResult{
		Spanner: r.Spanner, Passes: r.Passes, StretchBound: r.StretchBound,
		PhaseNanos: r.PhaseNanos, PlanEdges: r.PlanEdges,
	}
}

// BaswanaSenSketch is the incremental form of the Sec. 5 BASWANA-SEN
// emulation: it accumulates a dynamic update log (the adaptive construction
// is multi-pass, so the stream must be replayable — Definition 2's
// r-adaptive sketching model), builds the (2k-1)-spanner on demand, and
// memoizes the result until the next update. Construction arenas are
// allocated once and reseeded pass to pass and build to build.
type BaswanaSenSketch struct {
	bld *spanner.BSBuilder
	st  *stream.Stream
	res *SpannerResult
}

// NewBaswanaSenSketch creates a spanner sketch for n vertices with pass
// count k (stretch 2k-1).
func NewBaswanaSenSketch(n, k int, seed uint64) *BaswanaSenSketch {
	return &BaswanaSenSketch{bld: spanner.NewBSBuilder(n, k, seed), st: &stream.Stream{N: n}}
}

// Update appends a signed multiplicity change to edge {u, v} and
// invalidates the memoized spanner.
func (s *BaswanaSenSketch) Update(u, v int, delta int64) {
	s.st.Updates = append(s.st.Updates, stream.Update{U: u, V: v, Delta: delta})
	s.res = nil
}

// UpdateBatch appends a slice of updates.
func (s *BaswanaSenSketch) UpdateBatch(ups []Update) {
	s.st.Updates = append(s.st.Updates, ups...)
	s.res = nil
}

// Ingest appends a whole stream.
func (s *BaswanaSenSketch) Ingest(st *Stream) { s.UpdateBatch(st.Updates) }

// SetIngestWorkers shards each pass's plan sweep across w goroutines
// (bit-identical for every setting).
func (s *BaswanaSenSketch) SetIngestWorkers(w int) { s.bld.SetIngestWorkers(w) }

// SetDecodeWorkers fans the retirement decode across w goroutines
// (0 restores the GOMAXPROCS default; bit-identical for every setting).
func (s *BaswanaSenSketch) SetDecodeWorkers(w int) { s.bld.SetDecodeWorkers(w) }

// Build constructs the spanner for the accumulated stream. The result is
// memoized: repeated calls without intervening updates return the same
// value (treat the graph as read-only).
func (s *BaswanaSenSketch) Build() SpannerResult {
	if s.res == nil {
		r := s.bld.Build(s.st)
		s.res = &SpannerResult{
			Spanner: r.Spanner, Passes: r.Passes, StretchBound: float64(r.StretchBound),
			PhaseNanos: r.PhaseNanos, PlanEdges: r.PlanEdges,
		}
	}
	return *s.res
}

// Footprint reports the space of the retained construction arenas (the
// join-sampler arena and the group-sampler bank, reused across builds).
func (s *BaswanaSenSketch) Footprint() Footprint { return s.bld.Footprint() }

// RecurseConnectSketch is the incremental form of RECURSECONNECT
// (Theorem 5.1): log k passes at stretch k^{log2 5}-1, with the update log,
// memoization, and arena reuse of BaswanaSenSketch.
type RecurseConnectSketch struct {
	bld *spanner.RCBuilder
	st  *stream.Stream
	res *SpannerResult
}

// NewRecurseConnectSketch creates a spanner sketch for n vertices with
// stretch parameter k.
func NewRecurseConnectSketch(n, k int, seed uint64) *RecurseConnectSketch {
	return &RecurseConnectSketch{bld: spanner.NewRCBuilder(n, k, seed), st: &stream.Stream{N: n}}
}

// Update appends a signed multiplicity change to edge {u, v} and
// invalidates the memoized spanner.
func (s *RecurseConnectSketch) Update(u, v int, delta int64) {
	s.st.Updates = append(s.st.Updates, stream.Update{U: u, V: v, Delta: delta})
	s.res = nil
}

// UpdateBatch appends a slice of updates.
func (s *RecurseConnectSketch) UpdateBatch(ups []Update) {
	s.st.Updates = append(s.st.Updates, ups...)
	s.res = nil
}

// Ingest appends a whole stream.
func (s *RecurseConnectSketch) Ingest(st *Stream) { s.UpdateBatch(st.Updates) }

// SetIngestWorkers shards each pass's plan sweep across w goroutines.
func (s *RecurseConnectSketch) SetIngestWorkers(w int) { s.bld.SetIngestWorkers(w) }

// SetDecodeWorkers fans the per-supernode collection across w goroutines.
func (s *RecurseConnectSketch) SetDecodeWorkers(w int) { s.bld.SetDecodeWorkers(w) }

// Build constructs the spanner for the accumulated stream, memoized until
// the next update (treat the returned graph as read-only).
func (s *RecurseConnectSketch) Build() SpannerResult {
	if s.res == nil {
		r := s.bld.Build(s.st)
		s.res = &SpannerResult{
			Spanner: r.Spanner, Passes: r.Passes, StretchBound: r.StretchBound,
			PhaseNanos: r.PhaseNanos, PlanEdges: r.PlanEdges,
		}
	}
	return *s.res
}

// Footprint reports the space of the retained construction banks.
func (s *RecurseConnectSketch) Footprint() Footprint { return s.bld.Footprint() }

// MeasureStretch returns the worst observed distance ratio d_H/d_G over
// BFS from `sources` random roots (+Inf if H fails to span G).
func MeasureStretch(g, h *Graph, sources int, seed uint64) float64 {
	return spanner.MeasureStretch(g, h, sources, seed)
}
