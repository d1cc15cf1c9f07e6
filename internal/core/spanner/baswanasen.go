package spanner

import (
	"math"
	"time"

	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/l0"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// BSResult reports a spanner and construction diagnostics.
type BSResult struct {
	Spanner *graph.Graph
	Passes  int
	// StretchBound is the guarantee 2k-1.
	StretchBound int
	// PhaseNanos is the wall time of each executed pass (plan sweep plus
	// decode), one entry per pass.
	PhaseNanos []int64
	// PlanEdges is the size of the coalesced pass plan: the distinct
	// surviving edges each pass actually sweeps, versus Stream.Len() raw
	// updates for the scalar replay.
	PlanEdges int
}

// BaswanaSen builds a (2k-1)-spanner of the graph defined by the dynamic
// stream st, in k passes (the Sec. 5 "Part 1 / Part 2" emulation). One-shot
// form of BSBuilder.Build.
func BaswanaSen(st *stream.Stream, k int, seed uint64) BSResult {
	return NewBSBuilder(st.N, k, seed).Build(st)
}

// BSBuilder is the reusable BASWANA-SEN construction: the join-sampler
// arena and the group-sampler bank are allocated once and reseeded between
// passes (and between builds), the stream is coalesced into one pass plan
// swept per phase by slot-owned ranges (ownedSweep), and the retirement
// decode fans out across worker goroutines. Each pass i knows the
// clustering from pass i-1 and builds two sketch families:
//
//   - per live vertex, an l0-sampler over its edges into *sampled* trees
//     (case: vertex joins a tree, contributing one tree edge);
//   - per live vertex, a banked GroupSampler over its edges grouped by the
//     far endpoint's tree (case: vertex has no sampled neighbor, stores one
//     edge per adjacent tree — the set L(u) — and retires).
//
// The final pass adds, for every surviving vertex, one edge to every
// adjacent T_{k-1} tree. Output is bit-identical to the retained scalar
// map-based construction (internal/baseline) by linearity of the coalesced
// plan and bit-compatibility of the banked samplers.
type BSBuilder struct {
	n, k          int
	seed          uint64
	ingestWorkers int
	decodeWorkers int

	groupBudget int

	// Arenas reused across passes and builds.
	join *sketchcore.Arena
	bank *GroupBank

	// Per-pass scratch.
	member, newMember []int
	isRoot, selected  []bool
	liveSlot          []int
	joinSeeds         []uint64
	bankSeeds         []uint64
	addedStamp        []int
	stamp             int
	candidates        []int
	sweep             ownedSweep
	dec               decodeScratch
}

// NewBSBuilder creates a builder for streams on n vertices with pass count
// k (stretch 2k-1) and the given seed. Arenas are allocated on first Build.
func NewBSBuilder(n, k int, seed uint64) *BSBuilder {
	if k < 1 {
		k = 1
	}
	if n < 0 {
		n = 0
	}
	return &BSBuilder{n: n, k: k, seed: seed}
}

// SetIngestWorkers splits each pass's plan sweep into w slot-owned ranges
// (w <= 0 defaults to GOMAXPROCS, w == 1 sequential; every cell has one
// writer, so the state is bit-identical for every setting).
func (b *BSBuilder) SetIngestWorkers(w int) { b.ingestWorkers = w }

// SetDecodeWorkers fans the retirement decode (join sampling + group
// collection) across w goroutines (0 = GOMAXPROCS). The spanner is
// bit-identical for every setting: workers only sample; edges are applied
// sequentially in vertex order.
func (b *BSBuilder) SetDecodeWorkers(w int) { b.decodeWorkers = w }

// Footprint reports the space of the builder's retained sampler state (the
// join arena plus the group bank, reused across passes and builds).
func (b *BSBuilder) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	if b.join != nil {
		f.Accum(b.join.Footprint())
	}
	if b.bank != nil {
		f.Accum(b.bank.Footprint())
	}
	return f
}

// ensureScratch allocates the arenas and scratch on first use.
func (b *BSBuilder) ensureScratch() {
	if b.join != nil {
		return
	}
	n := b.n
	b.groupBudget = int(math.Ceil(4*math.Pow(float64(n), 1.0/float64(b.k)))) + 4
	b.joinSeeds = make([]uint64, n)
	b.bankSeeds = make([]uint64, n)
	b.join = sketchcore.New(sketchcore.Config{
		Slots: n, Universe: uint64(n), Reps: l0.DefaultReps,
		SlotSeeds: b.joinSeeds, DeferTables: true,
	})
	b.bank = NewGroupBank(n, uint64(n), b.groupBudget, b.bankSeeds)
	b.member = make([]int, n)
	b.newMember = make([]int, n)
	b.isRoot = make([]bool, n)
	b.selected = make([]bool, n)
	b.liveSlot = make([]int, n)
	b.addedStamp = make([]int, n)
}

// Build constructs the spanner for st (st.N must equal the builder's n).
func (b *BSBuilder) Build(st *stream.Stream) BSResult {
	if st.N != b.n {
		panic("spanner: stream vertex count does not match builder")
	}
	n, k := b.n, b.k
	if n == 0 {
		// Empty graph: only the (trivial) final pass runs, as in the
		// retained scalar path.
		return BSResult{Spanner: graph.New(0), Passes: 1, StretchBound: 2*k - 1, PhaseNanos: []int64{0}}
	}
	b.ensureScratch()
	plan := st.Coalesce()
	spanner := graph.New(n)

	member := b.member
	for v := range member {
		member[v] = v // phase 0: every vertex is its own tree T_0[v] = {v}
	}
	isRoot := b.isRoot
	for v := range isRoot {
		isRoot[v] = true
	}
	for i := range b.addedStamp {
		b.addedStamp[i] = -1
	}
	b.stamp = 0
	sampleProb := math.Pow(float64(n), -1.0/float64(k))
	rng := hashing.NewRNG(hashing.DeriveSeed(b.seed, 0xb5))

	passes := 0
	var phaseNanos []int64
	for phase := 1; phase <= k-1; phase++ {
		t0 := time.Now()
		// Sample the surviving roots (rng consumption matches the scalar
		// path exactly: one draw per surviving root).
		selected := b.selected
		for v := 0; v < n; v++ {
			selected[v] = isRoot[v] && rng.Float64() < sampleProb
		}
		passSeed := hashing.DeriveSeed(b.seed, uint64(phase))
		// Live-vertex slot compaction: retired vertices get no sampler
		// member — at late phases most of the graph has retired.
		live := 0
		for v := 0; v < n; v++ {
			if member[v] == -1 {
				b.liveSlot[v] = -1
				continue
			}
			b.liveSlot[v] = live
			b.joinSeeds[live] = hashing.DeriveSeed(passSeed, uint64(v))
			b.bankSeeds[live] = hashing.DeriveSeed(passSeed, 0x10000+uint64(v))
			live++
		}
		if live == 0 {
			break // every vertex retired: no edge can join or be stored anymore
		}
		// ---- the pass: one slot-owned sweep over the coalesced plan ----
		// Each range zeroes and reseeds its own members (the last range
		// also zeroes the slots past `live`). Slot compaction puts every
		// live vertex below `live`, so hash rederivation cost tracks the
		// surviving graph.
		p := bsPass{member: member, selected: selected, liveSlot: b.liveSlot, join: b.join, bank: b.bank}
		b.sweep.run(live, b.ingestWorkers, []*sketchcore.Arena{b.join, b.bank.cells}, func(lo, hi int, marks [][]uint64) {
			end := b.rangeEnd(hi, live)
			b.join.ResetSlots(lo, end)
			b.bank.resetMembers(lo, end)
			b.join.SeedSlots(lo, b.joinSeeds[lo:hi])
			b.bank.seedMembers(b.bankSeeds, lo, hi)
			p.sweep(plan.Updates, lo, hi, marks[0], marks[1])
		})
		passes++

		// ---- post-pass: apply the Baswana-Sen phase ----
		// Candidates are the live vertices of unsampled trees; the decode
		// (join sampling, group collection) runs vertex-parallel, the edge
		// application stays sequential in vertex order.
		cands := b.candidates[:0]
		for v := 0; v < n; v++ {
			if member[v] != -1 && !selected[member[v]] {
				cands = append(cands, v)
			}
		}
		b.candidates = cands
		b.dec.run(len(cands), b.decodeWorkers, func(w *decodeWorker, i int) {
			v := cands[i]
			if idx, _, ok := b.join.Sample(b.liveSlot[v]); ok {
				w.join(i, idx)
				return
			}
			w.collect(i, func(buf []uint64) []uint64 {
				return b.bank.CollectInto(b.liveSlot[v], buf)
			})
		})
		newMember := b.newMember
		copy(newMember, member)
		for i, v := range cands {
			if joined, w := b.dec.joined(i); joined {
				// Join the sampled tree through neighbor w.
				spanner.AddEdge(v, int(w), 1)
				newMember[v] = member[w]
				continue
			}
			// No sampled neighbor: store one edge per adjacent tree (L(v)),
			// then retire.
			for _, item := range b.dec.items[i] {
				w := int(item)
				g := member[w]
				if g == -1 || g == member[v] || b.addedStamp[g] == b.stamp {
					continue
				}
				b.addedStamp[g] = b.stamp
				spanner.AddEdge(v, w, 1)
			}
			b.stamp++
			newMember[v] = -1
		}
		b.member, b.newMember = newMember, member
		member = newMember
		for v := range isRoot {
			isRoot[v] = isRoot[v] && selected[v]
		}
		phaseNanos = append(phaseNanos, time.Since(t0).Nanoseconds())
	}

	// ---- final clean-up pass: one edge to every adjacent tree ----
	t0 := time.Now()
	passSeed := hashing.DeriveSeed(b.seed, 0xf1a1)
	live := 0
	for v := 0; v < n; v++ {
		if member[v] == -1 {
			b.liveSlot[v] = -1
			continue
		}
		b.liveSlot[v] = live
		b.bankSeeds[live] = hashing.DeriveSeed(passSeed, uint64(v))
		live++
	}
	if live > 0 {
		p := bsPass{member: member, liveSlot: b.liveSlot, bank: b.bank}
		b.sweep.run(live, b.ingestWorkers, []*sketchcore.Arena{b.bank.cells}, func(lo, hi int, marks [][]uint64) {
			b.bank.resetMembers(lo, b.rangeEnd(hi, live))
			b.bank.seedMembers(b.bankSeeds, lo, hi)
			p.sweepFinal(plan.Updates, lo, hi, marks[0])
		})
		cands := b.candidates[:0]
		for v := 0; v < n; v++ {
			if member[v] != -1 {
				cands = append(cands, v)
			}
		}
		b.candidates = cands
		b.dec.run(len(cands), b.decodeWorkers, func(w *decodeWorker, i int) {
			w.collect(i, func(buf []uint64) []uint64 {
				return b.bank.CollectInto(b.liveSlot[cands[i]], buf)
			})
		})
		for i, v := range cands {
			for _, item := range b.dec.items[i] {
				w := int(item)
				g := member[w]
				if g == -1 || g == member[v] || b.addedStamp[g] == b.stamp {
					continue
				}
				b.addedStamp[g] = b.stamp
				spanner.AddEdge(v, w, 1)
			}
			b.stamp++
		}
	}
	passes++ // the final pass runs (trivially) even with no survivors
	phaseNanos = append(phaseNanos, time.Since(t0).Nanoseconds())

	return BSResult{
		Spanner: spanner, Passes: passes, StretchBound: 2*k - 1,
		PhaseNanos: phaseNanos, PlanEdges: plan.Len(),
	}
}

// rangeEnd is where a sweep range [lo, hi) of live members stops zeroing:
// the last range also zeroes the members past `live`, which the previous
// pass may have written.
func (b *BSBuilder) rangeEnd(hi, live int) int {
	if hi == live {
		return b.n
	}
	return hi
}

// bsPass is one BASWANA-SEN pass's view for the slot-owned sweep: the
// (read-only) clustering plus the join arena and group bank.
type bsPass struct {
	member   []int
	selected []bool
	liveSlot []int
	join     *sketchcore.Arena
	bank     *GroupBank
}

// sweep applies the plan edges' updates that land on live slots [lo, hi):
// per edge, the clustering filter runs once, then each owned live endpoint
// feeds its join sampler (when the far tree is sampled) and its group
// sampler, recording the slots written in joinMarks and bankMarks.
func (p *bsPass) sweep(ups []stream.Update, lo, hi int, joinMarks, bankMarks []uint64) {
	member, selected, liveSlot := p.member, p.selected, p.liveSlot
	for _, up := range ups {
		mu, mv := member[up.U], member[up.V]
		if mu == -1 || mv == -1 || mu == mv {
			continue // retired endpoint or intra-tree edge: out of play
		}
		if su := liveSlot[up.U]; su >= lo && su < hi {
			if selected[mv] {
				p.join.UpdateMarked(joinMarks, su, uint64(up.V), up.Delta)
			}
			p.bank.updateMarked(bankMarks, su, uint64(mv), uint64(up.V), up.Delta)
		}
		if sv := liveSlot[up.V]; sv >= lo && sv < hi {
			if selected[mu] {
				p.join.UpdateMarked(joinMarks, sv, uint64(up.U), up.Delta)
			}
			p.bank.updateMarked(bankMarks, sv, uint64(mu), uint64(up.U), up.Delta)
		}
	}
}

// sweepFinal is the final pass's sweep: group sampling only.
func (p *bsPass) sweepFinal(ups []stream.Update, lo, hi int, bankMarks []uint64) {
	member, liveSlot := p.member, p.liveSlot
	for _, up := range ups {
		mu, mv := member[up.U], member[up.V]
		if mu == -1 || mv == -1 || mu == mv {
			continue
		}
		if su := liveSlot[up.U]; su >= lo && su < hi {
			p.bank.updateMarked(bankMarks, su, uint64(mv), uint64(up.V), up.Delta)
		}
		if sv := liveSlot[up.V]; sv >= lo && sv < hi {
			p.bank.updateMarked(bankMarks, sv, uint64(mu), uint64(up.U), up.Delta)
		}
	}
}

// MeasureStretch returns the maximum over sampled vertex pairs of
// d_H(u,v) / d_G(u,v), using BFS ground truth. Pairs unreachable in G are
// skipped; a pair reachable in G but not H yields +Inf (spanner broken).
func MeasureStretch(g, h *graph.Graph, sources int, seed uint64) float64 {
	n := g.N()
	if sources > n {
		sources = n
	}
	r := hashing.NewRNG(seed)
	worst := 1.0
	for s := 0; s < sources; s++ {
		src := r.Intn(n)
		dg := g.BFS(src)
		dh := h.BFS(src)
		for v := 0; v < n; v++ {
			if v == src || dg[v] <= 0 {
				continue
			}
			if dh[v] < 0 {
				return math.Inf(1)
			}
			if ratio := float64(dh[v]) / float64(dg[v]); ratio > worst {
				worst = ratio
			}
		}
	}
	return worst
}
