package agm

import (
	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// EdgeConnectSketch implements k-EDGECONNECT (Theorem 2.3): a linear sketch
// from which a subgraph H with O(kn) edges can be extracted such that every
// edge that participates in a cut of size <= k in the input graph belongs
// to H.
//
// Construction: k independent ForestSketch banks. In post-processing,
// extract a spanning forest F_1 from bank 1; subtract F_1's edges (by
// linearity) from banks 2..k; extract F_2 from bank 2; and so on. The union
// F_1 ∪ ... ∪ F_k is the witness: any cut with c <= k crossing edges has
// all of them picked up, because each F_i either contains a crossing edge
// not in F_1..F_{i-1} or the remaining graph no longer connects across the
// cut — and a cut of size <= k is exhausted within k forests.
type EdgeConnectSketch struct {
	n     int
	k     int
	seed  uint64
	banks []*ForestSketch
	plan  *sketchcore.EdgePlan // shared batch staging across all k banks

	// Decode cache: extraction is read-only (forest subtraction is staged
	// as a pending plan folded in at aggregation time, never written to the
	// banks), so the witness is computed once and every later call returns
	// the same graph. witnessK records the provable-saturation flag.
	witness  *graph.Graph
	witnessK bool
}

// NewEdgeConnectSketch creates a sketch for parameter k on n vertices.
func NewEdgeConnectSketch(n, k int, seed uint64) *EdgeConnectSketch {
	if k < 1 {
		k = 1
	}
	ec := &EdgeConnectSketch{n: n, k: k, seed: seed}
	ec.banks = make([]*ForestSketch, k)
	for i := 0; i < k; i++ {
		ec.banks[i] = NewForestSketch(n, hashing.DeriveSeed(seed, 0xec00+uint64(i)))
	}
	return ec
}

// K returns the connectivity parameter.
func (ec *EdgeConnectSketch) K() int { return ec.k }

// Clone returns a copy of the k forest banks, sharing cells copy-on-write.
// The decode cache is not carried over (the clone recomputes its witness on
// first use), so the clone is safe to hand to a concurrent reader while the
// original keeps ingesting.
func (ec *EdgeConnectSketch) Clone() *EdgeConnectSketch {
	c := &EdgeConnectSketch{n: ec.n, k: ec.k, seed: ec.seed}
	c.banks = make([]*ForestSketch, len(ec.banks))
	for i, b := range ec.banks {
		c.banks[i] = b.Clone()
	}
	return c
}

// Update applies a signed multiplicity change to edge {u, v}.
func (ec *EdgeConnectSketch) Update(u, v int, delta int64) {
	ec.witness = nil // sketch state diverges from any cached decode
	for _, b := range ec.banks {
		b.Update(u, v, delta)
	}
}

// UpdateBatch stages each chunk once (the slot sort is hash-independent)
// and replays it into all k forest banks' round arenas.
func (ec *EdgeConnectSketch) UpdateBatch(ups []stream.Update) {
	ec.witness = nil
	sketchcore.ReplayPlanned(ups, ec.n, &ec.plan, func(p *sketchcore.EdgePlan) {
		for _, b := range ec.banks {
			b.ApplyPlan(p)
		}
	})
}

// Ingest replays a whole stream via the batch kernel.
func (ec *EdgeConnectSketch) Ingest(s *stream.Stream) {
	ec.UpdateBatch(s.Updates)
}

// IngestParallel replays a stream with the given number of worker
// goroutines (workers <= 0 defaults to GOMAXPROCS), bit-identical to
// Ingest: each chunk is staged once, and the round arenas of all k forest
// banks are applied under that one plan, one owner per arena (as
// ForestSketch.IngestParallel does for one forest).
func (ec *EdgeConnectSketch) IngestParallel(s *stream.Stream, workers int) {
	ec.witness = nil
	replayBanks(s.Updates, ec.n, &ec.plan, ec.AppendArenas(nil), workers)
}

// Add merges another EdgeConnectSketch (same n, k, seed).
func (ec *EdgeConnectSketch) Add(other *EdgeConnectSketch) {
	if ec.n != other.n || ec.k != other.k || ec.seed != other.seed {
		panic("agm: merging incompatible edge-connect sketches")
	}
	ec.witness = nil
	for i := range ec.banks {
		ec.banks[i].Add(other.banks[i])
	}
}

// MergeMany folds k edge-connect sketches into ec bank by bank in one
// occupancy-guided pass each; bit-identical to sequential pairwise Add.
func (ec *EdgeConnectSketch) MergeMany(others []*EdgeConnectSketch) {
	for _, o := range others {
		if ec.n != o.n || ec.k != o.k || ec.seed != o.seed {
			panic("agm: merging incompatible edge-connect sketches")
		}
	}
	ec.witness = nil
	srcs := make([]*ForestSketch, len(others))
	for i := range ec.banks {
		for j, o := range others {
			srcs[j] = o.banks[i]
		}
		ec.banks[i].MergeMany(srcs)
	}
}

// AppendArenas appends every forest bank's round arenas, in wire order, to
// dst.
func (ec *EdgeConnectSketch) AppendArenas(dst []*sketchcore.Arena) []*sketchcore.Arena {
	for _, b := range ec.banks {
		dst = b.AppendArenas(dst)
	}
	return dst
}

// AppendState appends the tagged state of all k forest banks (headerless).
func (ec *EdgeConnectSketch) AppendState(buf []byte) []byte {
	for _, b := range ec.banks {
		buf = b.AppendState(buf)
	}
	return buf
}

// DecodeState reads the state written by AppendState, replacing contents.
func (ec *EdgeConnectSketch) DecodeState(data []byte) ([]byte, error) {
	ec.witness = nil
	var err error
	for _, b := range ec.banks {
		if data, err = b.DecodeState(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// MergeState folds tagged state directly into the sketch's banks.
func (ec *EdgeConnectSketch) MergeState(data []byte) ([]byte, error) {
	ec.witness = nil
	var err error
	for _, b := range ec.banks {
		if data, err = b.MergeState(data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Footprint reports space accounting summed over the k forest banks.
func (ec *EdgeConnectSketch) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	for _, b := range ec.banks {
		f.Accum(b.Footprint())
	}
	return f
}

// Equal reports parameter and bit-identical state equality.
func (ec *EdgeConnectSketch) Equal(other *EdgeConnectSketch) bool {
	if ec.n != other.n || ec.k != other.k || ec.seed != other.seed {
		return false
	}
	for i := range ec.banks {
		if !ec.banks[i].Equal(other.banks[i]) {
			return false
		}
	}
	return true
}

// WitnessScratch pools the decode-side buffers of witness extraction —
// aggregation cells, the pending subtraction plan, the Boruvka partition,
// and the per-forest edge buffer — so repeated extraction (one per
// subsampling level in the mincut and sparsifier decoders) allocates
// nothing after the first call.
type WitnessScratch struct {
	agg    *sketchcore.Aggregator
	sub    sketchcore.PendingSub
	dsu    *graph.DSU
	forest []graph.Edge
}

// NewWitnessScratch returns an empty scratch; buffers grow on first use.
func NewWitnessScratch() *WitnessScratch {
	return &WitnessScratch{agg: sketchcore.NewAggregator(), dsu: graph.NewDSU(0)}
}

// Witness extracts the subgraph H = F_1 ∪ ... ∪ F_k. Extraction is
// read-only on the sketch (earlier forests are subtracted from later banks
// as a staged pending plan, folded into the per-component aggregation by
// linearity rather than written into the arenas), and the result is cached:
// repeated calls return the same graph, which callers must treat as
// read-only. Edges carry their sampled multiplicities.
func (ec *EdgeConnectSketch) Witness() *graph.Graph {
	h, _ := ec.WitnessInfo()
	return h
}

// WitnessInfo returns the cached witness plus a provable-saturation flag:
// when true, every peeled forest was a spanning tree and no edge pair
// repeated across forests, so H is the union of k edge-disjoint spanning
// trees with per-edge weight >= 1 — every cut of H has value >= k, hence
// mincut(H) >= k without running any cut algorithm. Decoders use the flag
// to skip Stoer-Wagner / per-pair flow probes on saturated levels; a false
// flag implies nothing (the witness may still be k-connected).
func (ec *EdgeConnectSketch) WitnessInfo() (*graph.Graph, bool) {
	if ec.witness == nil {
		ec.witness = graph.New(ec.n)
		ec.witnessK = ec.WitnessInto(ec.witness, NewWitnessScratch())
	}
	return ec.witness, ec.witnessK
}

// WitnessInto extracts the witness into h (reset to the sketch's vertex
// count first) using the caller's scratch, allocating nothing beyond what h
// and ws already hold. It bypasses and does not populate the Witness cache.
// The returned flag is WitnessInfo's provable-saturation bit. ws must not
// be shared between concurrent calls.
func (ec *EdgeConnectSketch) WitnessInto(h *graph.Graph, ws *WitnessScratch) bool {
	return ec.WitnessPrefixInto(h, ws, ec.k)
}

// WitnessPrefixInto is WitnessInto over the first k <= K() forests only.
// Forest i is seeded from (seed, i) whatever K() is and the forests are
// peeled in order, so the result is bit-identical to WitnessInto on a
// k-forest sketch with the same seed fed the same stream; the flag then
// claims mincut(H) >= k.
func (ec *EdgeConnectSketch) WitnessPrefixInto(h *graph.Graph, ws *WitnessScratch, k int) bool {
	if k < 1 || k > ec.k {
		panic("agm: witness prefix out of range")
	}
	h.Reset(ec.n)
	ws.sub.Reset(ec.n)
	provable := true
	for i := 0; i < k; i++ {
		ws.dsu.Reset(ec.n)
		forest := ec.banks[i].spanningForestPending(ws.dsu, ws.agg, &ws.sub, ws.forest[:0])
		ws.forest = forest // keep the grown buffer for the next forest
		if ws.dsu.Count() > 1 {
			provable = false // F_i is not spanning: no >= k-connectivity claim
		}
		for _, e := range forest {
			if h.HasEdge(e.U, e.V) {
				// An earlier forest held this pair yet it resurfaced — the
				// stream left a negative multiplicity the sampled-|w|
				// subtraction could not cancel. The edge-disjointness
				// argument is void; keep extracting, drop the claim.
				provable = false
			}
			h.AddEdge(e.U, e.V, e.W)
			// Remove this edge entirely from all later banks so forest
			// i+1 is edge-disjoint from F_1..F_i: staged once, negated,
			// and folded into every later bank's aggregation.
			ws.sub.Add(e.U, e.V, -e.W)
		}
	}
	return provable
}

// Words returns the memory footprint in 64-bit words.
func (ec *EdgeConnectSketch) Words() int {
	w := 0
	for _, b := range ec.banks {
		w += b.Words()
	}
	return w
}

// IsKConnected reports whether the sketched graph is k-edge-connected,
// judged from the witness: the witness preserves all cuts of size < k
// exactly, so its min cut is < k iff the graph's is. Extraction is cached
// and read-only (see Witness).
func (ec *EdgeConnectSketch) IsKConnected() bool {
	h, provable := ec.WitnessInfo()
	if provable {
		// k edge-disjoint spanning trees: mincut(H) >= k, no cut algorithm
		// needed.
		return true
	}
	if !h.IsConnected() {
		return false
	}
	// The witness contains every edge of every cut of size <= k, and at
	// least k edges of every larger cut, so mincut(H) >= k iff
	// mincut(G) >= k.
	val, _ := h.StoerWagner()
	return val >= int64(ec.k)
}

// BipartitenessSketch tests bipartiteness via the double cover D(G):
// each vertex v becomes v0 = v and v1 = v + n; each edge {u,v} becomes
// {u0, v1} and {u1, v0}. G is bipartite iff cc(D(G)) == 2*cc(G).
type BipartitenessSketch struct {
	n       int
	base    *ForestSketch   // sketch of G
	double  *ForestSketch   // sketch of D(G)
	scratch []stream.Update // staging for the double-cover batch
}

// NewBipartitenessSketch creates the paired sketches.
func NewBipartitenessSketch(n int, seed uint64) *BipartitenessSketch {
	return &BipartitenessSketch{
		n:      n,
		base:   NewForestSketch(n, hashing.DeriveSeed(seed, 0xb1)),
		double: NewForestSketch(2*n, hashing.DeriveSeed(seed, 0xb2)),
	}
}

// Update applies a signed multiplicity change to edge {u, v}.
func (bs *BipartitenessSketch) Update(u, v int, delta int64) {
	if u == v || delta == 0 {
		return
	}
	bs.base.Update(u, v, delta)
	bs.double.Update(u, v+bs.n, delta)
	bs.double.Update(u+bs.n, v, delta)
}

// UpdateBatch applies a batch of updates: the base sketch takes the batch
// as-is, and the double-cover sketch takes the transformed batch
// {u, v+n}, {u+n, v} staged once in a reusable scratch slice. Each applies
// its staged plans from GOMAXPROCS goroutines, one owner per round bank.
func (bs *BipartitenessSketch) UpdateBatch(ups []stream.Update) {
	bs.updateBatch(ups, 0)
}

// updateBatch is UpdateBatch on an explicit worker setting (0 =
// GOMAXPROCS).
func (bs *BipartitenessSketch) updateBatch(ups []stream.Update, workers int) {
	replayBanks(ups, bs.n, &bs.base.plan, bs.base.banks, workers)
	buf := bs.scratch[:0]
	for _, up := range ups {
		if up.U == up.V || up.Delta == 0 {
			continue
		}
		buf = append(buf,
			stream.Update{U: up.U, V: up.V + bs.n, Delta: up.Delta},
			stream.Update{U: up.U + bs.n, V: up.V, Delta: up.Delta})
	}
	bs.scratch = buf[:0]
	replayBanks(buf, 2*bs.n, &bs.double.plan, bs.double.banks, workers)
}

// Ingest replays a whole stream via the batch kernel.
func (bs *BipartitenessSketch) Ingest(s *stream.Stream) {
	bs.UpdateBatch(s.Updates)
}

// IngestParallel is Ingest with the given number of worker goroutines
// (workers <= 0 defaults to GOMAXPROCS); the state is bit-identical.
func (bs *BipartitenessSketch) IngestParallel(s *stream.Stream, workers int) {
	bs.updateBatch(s.Updates, workers)
}

// Words returns the memory footprint in 64-bit words.
func (bs *BipartitenessSketch) Words() int {
	return bs.base.Words() + bs.double.Words()
}

// Footprint reports space accounting over the base and double-cover
// sketches.
func (bs *BipartitenessSketch) Footprint() sketchcore.Footprint {
	f := bs.base.Footprint()
	f.Accum(bs.double.Footprint())
	return f
}

// IsBipartite decides bipartiteness of the sketched graph.
func (bs *BipartitenessSketch) IsBipartite() bool {
	ccG := bs.base.ComponentCount()
	ccD := bs.double.ComponentCount()
	return ccD == 2*ccG
}
