// Package agm implements the linear graph sketches of Ahn, Guha, and
// McGregor's earlier paper [4] ("Analyzing graph structure via linear
// measurements", SODA 2012) that this paper builds on:
//
//   - node-incidence vectors x^u (Eq. 1 of Sec. 3.3): for edge (v,w) with
//     v < w, x^u[(v,w)] = +1 if u = v, -1 if u = w. The key identity is
//     support(sum_{u in A} x^u) = E(A, V\A): summing node sketches over any
//     vertex set leaves exactly the crossing edges (internal edges cancel).
//   - spanning-forest extraction by Boruvka over l0-samplers, using a fresh
//     bank of samplers per round so that conditioning on earlier samples
//     never poisons later ones;
//   - connectivity and component counting;
//   - bipartiteness via the double cover (G is bipartite iff its double
//     cover has exactly twice as many components);
//   - k-EDGECONNECT (Theorem 2.3): k edge-disjoint spanning forests peeled
//     out of k sketch banks by linearity; their union is a witness H that
//     contains every edge crossing any cut of size <= k.
//
// The sampler state lives in internal/sketchcore arenas: one flat
// struct-of-arrays bank per Boruvka round, so updates are contiguous,
// merges are linear array passes, and Boruvka's per-component aggregation
// reuses scratch buffers instead of cloning samplers into a map.
package agm

import (
	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// samplerReps is the per-sampler repetition count used inside
// ForestSketch. Boruvka only needs each component's sample to succeed with
// constant probability per round (failed components retry next round with
// the slack rounds of boruvkaRounds), so this is deliberately leaner than
// l0.DefaultReps. Ablated in BenchmarkAblationBoruvkaReps.
const samplerReps = 4

// ForestSketch maintains, for every vertex, one l0-sampler of its incidence
// vector per Boruvka round. Linear: supports edge inserts and deletes.
type ForestSketch struct {
	n      int
	rounds int
	seed   uint64
	banks  []*sketchcore.Arena  // one shared-seed bank per round, n slots each
	plan   *sketchcore.EdgePlan // shared batch staging, built once per chunk
}

// boruvkaRounds returns the number of independent sampler banks: Boruvka
// halves the component count each successful round, so log2(n) + slack.
func boruvkaRounds(n int) int {
	r := 4 // slack: unproductive rounds retry with fresh samplers
	for m := 1; m < n; m <<= 1 {
		r++
	}
	return r
}

// NewForestSketch creates a sketch for graphs on n vertices.
func NewForestSketch(n int, seed uint64) *ForestSketch {
	fs := &ForestSketch{n: n, rounds: boruvkaRounds(n), seed: seed}
	universe := uint64(n) * uint64(n)
	fs.banks = make([]*sketchcore.Arena, fs.rounds)
	for r := 0; r < fs.rounds; r++ {
		// All samplers in one round share a seed so they are mergeable;
		// different rounds are independent.
		fs.banks[r] = sketchcore.New(sketchcore.Config{
			Slots:    n,
			Universe: universe,
			Reps:     samplerReps,
			Seed:     hashing.DeriveSeed(seed, uint64(r)),
		})
	}
	return fs
}

// N returns the vertex count.
func (fs *ForestSketch) N() int { return fs.n }

// Clone returns a copy: cell state is shared copy-on-write bank by bank
// (sketchcore.Arena.Clone; immutable hash state stays shared), batch-staging
// scratch is unshared. Mutating either sketch never perturbs the other —
// the epoch-snapshot primitive the concurrent service's query path is built
// on.
func (fs *ForestSketch) Clone() *ForestSketch {
	c := &ForestSketch{n: fs.n, rounds: fs.rounds, seed: fs.seed}
	c.banks = make([]*sketchcore.Arena, len(fs.banks))
	for i, b := range fs.banks {
		c.banks[i] = b.Clone()
	}
	return c
}

// Update applies a signed multiplicity change to edge {u, v}.
func (fs *ForestSketch) Update(u, v int, delta int64) {
	if u == v || delta == 0 {
		return
	}
	if u > v {
		u, v = v, u
	}
	idx := stream.EdgeIndex(u, v, fs.n)
	for r := 0; r < fs.rounds; r++ {
		fs.banks[r].UpdateEdge(u, v, idx, delta)
	}
}

// UpdateBatch applies a slice of stream updates through the arena batch
// kernel: each chunk is staged once into a slot-sorted EdgePlan (shared by
// every round bank — the slot grouping is hash-independent), and each bank
// then pays only its own table-served fingerprint terms, level hashes, and
// a slot-ordered sweep of its cell arena. State is bit-identical to
// per-update Update calls.
func (fs *ForestSketch) UpdateBatch(ups []stream.Update) {
	sketchcore.ReplayPlanned(ups, fs.n, &fs.plan, fs.ApplyPlan)
}

// ApplyPlan replays one staged chunk into every round bank. Exposed so
// multi-bank stacks (k-EDGECONNECT) can share one plan across all their
// forest sketches.
func (fs *ForestSketch) ApplyPlan(p *sketchcore.EdgePlan) {
	for _, b := range fs.banks {
		b.ApplyPlan(p)
	}
}

// Ingest replays a whole stream into the sketch via the batch kernel.
func (fs *ForestSketch) Ingest(s *stream.Stream) {
	fs.UpdateBatch(s.Updates)
}

// IngestParallel replays a stream with the given number of worker
// goroutines (workers <= 0 defaults to GOMAXPROCS), bit-identical to a
// sequential Ingest. The parallel axis is the round bank, not the stream:
// each chunk is staged once into the shared slot-sorted plan, and the
// workers then claim round banks and apply the plan concurrently
// (replayBanks). Every bank runs the exact sequential apply, so
// bit-identity needs no linearity argument at all, and no worker allocates
// a sketch of its own or merges one back. Distributed sites that genuinely
// hold disjoint substreams use Add/MergeMany on separately built sketches.
func (fs *ForestSketch) IngestParallel(s *stream.Stream, workers int) {
	replayBanks(s.Updates, fs.n, &fs.plan, fs.banks, workers)
}

// replayBanks stages ups chunk by chunk into one slot-sorted plan and
// applies every chunk to every bank, one owner per bank on
// sketchcore.ForkJoin: the plan is read-only during ApplyPlan and each
// arena keeps its own scratch, so the banks share nothing and end as the
// sequential bank loop leaves them. All banks must be node-incidence arenas
// over the same slots.
func replayBanks(ups []stream.Update, slots int, plan **sketchcore.EdgePlan, banks []*sketchcore.Arena, workers int) {
	sketchcore.ReplayPlanned(ups, slots, plan, func(p *sketchcore.EdgePlan) {
		sketchcore.ForkJoin(len(banks), workers, func(i int) { banks[i].ApplyPlan(p) })
	})
}

// Add merges another ForestSketch (same n and seed required): the
// distributed-streams operation of Sec. 1.1.
func (fs *ForestSketch) Add(other *ForestSketch) {
	if fs.n != other.n || fs.seed != other.seed || fs.rounds != other.rounds {
		panic("agm: merging incompatible forest sketches")
	}
	for r := 0; r < fs.rounds; r++ {
		fs.banks[r].Add(other.banks[r])
	}
}

// MergeMany folds k forest sketches into fs in one occupancy-guided pass
// per round bank (see sketchcore.Arena.MergeMany): the coordinator
// aggregation step, bit-identical to sequential pairwise Add calls.
func (fs *ForestSketch) MergeMany(others []*ForestSketch) {
	for _, o := range others {
		if fs.n != o.n || fs.seed != o.seed || fs.rounds != o.rounds {
			panic("agm: merging incompatible forest sketches")
		}
	}
	srcs := make([]*sketchcore.Arena, len(others))
	for r := range fs.banks {
		for i, o := range others {
			srcs[i] = o.banks[r]
		}
		fs.banks[r].MergeMany(srcs)
	}
}

// AppendArenas appends the round banks, in wire order, to dst: the cells
// (and the maintained digests, sketchcore.Digest) behind AppendState.
func (fs *ForestSketch) AppendArenas(dst []*sketchcore.Arena) []*sketchcore.Arena {
	return append(dst, fs.banks...)
}

// Reset zeroes the sketch's sampler state for reuse, touching only
// occupied arena regions.
func (fs *ForestSketch) Reset() {
	for _, b := range fs.banks {
		b.Reset()
	}
}

// AppendState appends the tagged cell state of every round bank —
// headerless; the envelope (MarshalBinaryCompact or an owning sketch)
// carries (n, seed, rounds).
func (fs *ForestSketch) AppendState(buf []byte) []byte {
	for _, b := range fs.banks {
		buf = b.AppendStateTagged(buf)
	}
	return buf
}

// DecodeState reads the tagged per-bank state written by AppendState,
// replacing the sketch's contents.
func (fs *ForestSketch) DecodeState(data []byte) ([]byte, error) {
	var err error
	for _, b := range fs.banks {
		if data, err = b.DecodeStateTagged(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// MergeState folds tagged per-bank state directly into the sketch — the
// wire-level merge: no second sketch is materialized, and the work is
// proportional to the payload's bytes.
func (fs *ForestSketch) MergeState(data []byte) ([]byte, error) {
	var err error
	for _, b := range fs.banks {
		if data, err = b.MergeStateTagged(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Footprint reports resident size, cell occupancy, and wire bytes, summed
// over the round banks.
func (fs *ForestSketch) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	for _, b := range fs.banks {
		f.Accum(b.Footprint())
	}
	return f
}

// Equal reports whether two sketches have identical parameters and
// bit-identical sampler state (the merge-semantics test oracle).
func (fs *ForestSketch) Equal(other *ForestSketch) bool {
	if fs.n != other.n || fs.seed != other.seed || fs.rounds != other.rounds {
		return false
	}
	for r := 0; r < fs.rounds; r++ {
		if !fs.banks[r].Equal(other.banks[r]) {
			return false
		}
	}
	return true
}

// SpanningForest extracts a spanning forest of the sketched graph via
// Boruvka: each round, every component samples one outgoing edge from the
// sum of its members' samplers. Returns forest edges with the multiplicity
// observed in the sample. The sketch is not modified.
func (fs *ForestSketch) SpanningForest() []graph.Edge {
	return fs.SpanningForestFrom(graph.NewDSU(fs.n))
}

// SpanningForestFrom runs the Boruvka extraction starting from an existing
// partition: only edges joining distinct dsu components are added, and dsu
// is advanced in place. The MST sketch uses this to refine a partition
// class by weight class.
func (fs *ForestSketch) SpanningForestFrom(dsu *graph.DSU) []graph.Edge {
	return fs.spanningForestPending(dsu, sketchcore.NewAggregator(), nil, nil)
}

// spanningForestPending is the Boruvka extraction kernel: it appends forest
// edges onto the given slice, reuses the caller's aggregation scratch, and
// folds a pending subtraction list (forest edges peeled from earlier
// k-EDGECONNECT banks, negated) into every per-component aggregation. The
// arena state is never modified — the pending list is the decode's view of
// the subtracted graph, applied at aggregation time by linearity.
func (fs *ForestSketch) spanningForestPending(dsu *graph.DSU, agg *sketchcore.Aggregator,
	sub *sketchcore.PendingSub, forest []graph.Edge) []graph.Edge {
	for r := 0; r < fs.rounds && dsu.Count() > 1; r++ {
		// Aggregate this round's samplers by component into scratch buffers
		// (component ids are first-appearance order, so extraction is
		// deterministic — unlike the old map-of-cloned-samplers walk).
		ncomp := agg.AggregateSub(fs.banks[r], dsu.Find, sub)
		// A round where every component's sample fails is not terminal:
		// later rounds retry with fresh, independent samplers. (An empty
		// sketch — true isolated components — also lands here; the loop
		// simply exhausts its rounds.)
		for c := 0; c < ncomp; c++ {
			idx, w, ok := agg.Sample(c)
			if !ok {
				continue
			}
			u, v := stream.EdgeFromIndex(idx, fs.n)
			mult := w
			if mult < 0 {
				mult = -mult
			}
			if dsu.Union(u, v) {
				forest = append(forest, graph.Edge{U: u, V: v, W: mult})
			}
		}
	}
	return forest
}

// ComponentCount returns the number of connected components, counting
// isolated vertices as their own components.
func (fs *ForestSketch) ComponentCount() int {
	return fs.n - len(fs.SpanningForest())
}

// IsConnected reports whether the sketched graph is connected.
func (fs *ForestSketch) IsConnected() bool {
	return fs.ComponentCount() <= 1
}

// Words returns the memory footprint in 64-bit words.
func (fs *ForestSketch) Words() int {
	w := 0
	for _, b := range fs.banks {
		w += b.Words()
	}
	return w
}
