package spanner

import (
	"math"
	"sort"
	"time"

	"graphsketch/internal/graph"
	"graphsketch/internal/hashing"
	"graphsketch/internal/sketchcore"
	"graphsketch/internal/stream"
)

// RCResult reports the RECURSECONNECT spanner and diagnostics.
type RCResult struct {
	Spanner *graph.Graph
	Passes  int
	// StretchBound is the Theorem 5.1 guarantee k^{log2 5} - 1.
	StretchBound float64
	// SupernodeHistory records |G~_i| after each contraction pass.
	SupernodeHistory []int
	// PhaseNanos is the wall time of each executed pass.
	PhaseNanos []int64
	// PlanEdges is the size of the coalesced pass plan each pass sweeps.
	PlanEdges int
}

// RecurseConnect builds a spanner in ~log2(k) passes (Theorem 5.1).
// One-shot form of RCBuilder.Build.
func RecurseConnect(st *stream.Stream, k int, seed uint64) RCResult {
	return NewRCBuilder(st.N, k, seed).Build(st)
}

// rcWitness is one H_i edge's original endpoints.
type rcWitness struct{ u, v int32 }

// rcTriple is one collected candidate edge on contracted supernodes
// (compact live indices), in deterministic collection order.
type rcTriple struct {
	pi, pj int32
	w      rcWitness
}

// RCBuilder is the reusable RECURSECONNECT construction (Theorem 5.1).
// Pass i works on the contracted graph G~_i (supernodes are merged vertex
// sets):
//
//  1. For each supernode, sample up to d_i = n^{2^i/k} distinct neighboring
//     supernodes, one witness edge each (a banked GroupSampler over original
//     edges grouped by far-endpoint supernode). Supernodes whose full
//     neighbor list fits under d_i are "low degree": all their edges
//     surface.
//  2. The sampled edges form H_i. Centers C_i: a maximal subset of the
//     high-degree supernodes that is independent in H_i^2 (greedy, distance
//     >= 3 in H_i). Neighbors of a center are assigned to it; remaining
//     high-degree supernodes have a center within 2 hops (by maximality)
//     and are assigned along that path; remaining low-degree supernodes
//     contribute all their sampled edges to the spanner and retire.
//  3. Assigned groups collapse into their center: G~_{i+1}, with
//     |G~_{i+1}| <= |G~_i| / d_i.
//
// A final pass recovers one original edge per pair of adjacent surviving
// supernodes. All contraction bookkeeping — H_i adjacency, center choice,
// assignment, relabeling — runs on stamp/slice scratch reused across
// passes, replacing the per-pass map[int]*GroupSampler and nested witness
// maps of the retained baseline; each pass sweeps the coalesced plan once,
// in slot-owned ranges (ownedSweep); collection fans out across decode
// workers.
// Output is bit-identical to the retained baseline construction.
type RCBuilder struct {
	n, k          int
	seed          uint64
	ingestWorkers int
	decodeWorkers int

	// Banks reused across builds: one per contraction pass (shapes differ
	// by pass, since d_i grows) plus the final recovery pass.
	passBanks []*GroupBank
	finalBank *GroupBank

	// Scratch reused across passes (all sized n once; compact live indices
	// and supernode ids never exceed n).
	sn, next    []int
	snSlot      []int
	liveIDs     []int
	seenStamp   []int
	seenVal     int
	memberSeeds []uint64
	triples     []rcTriple
	start, cur  []int
	nbr         []int32
	wit         []rcWitness
	deg         []int
	posIdx      []int
	posStamp    []int
	posVal      int
	high        []int
	assigned    []int
	centerNew   []int
	sweep       ownedSweep
	dec         decodeScratch
}

// NewRCBuilder creates a builder for streams on n vertices with stretch
// parameter k. Scratch and banks are allocated on first Build.
func NewRCBuilder(n, k int, seed uint64) *RCBuilder {
	if k < 2 {
		k = 2
	}
	if n < 0 {
		n = 0
	}
	return &RCBuilder{n: n, k: k, seed: seed}
}

// SetIngestWorkers splits each pass's plan sweep into w slot-owned ranges
// (w <= 0 defaults to GOMAXPROCS, w == 1 sequential; bit-identical for
// every setting).
func (b *RCBuilder) SetIngestWorkers(w int) { b.ingestWorkers = w }

// SetDecodeWorkers fans the per-supernode collection across w goroutines
// (0 = GOMAXPROCS); the spanner is bit-identical for every setting.
func (b *RCBuilder) SetDecodeWorkers(w int) { b.decodeWorkers = w }

// Footprint reports the space of the builder's retained sampler banks.
func (b *RCBuilder) Footprint() sketchcore.Footprint {
	var f sketchcore.Footprint
	for _, bank := range b.passBanks {
		if bank != nil {
			f.Accum(bank.Footprint())
		}
	}
	if b.finalBank != nil {
		f.Accum(b.finalBank.Footprint())
	}
	return f
}

func (b *RCBuilder) ensureScratch() {
	if b.sn != nil {
		return
	}
	n := b.n
	b.sn = make([]int, n)
	b.next = make([]int, n)
	b.snSlot = make([]int, n)
	b.seenStamp = make([]int, n)
	b.memberSeeds = make([]uint64, n)
	b.start = make([]int, n+1)
	b.cur = make([]int, n+1)
	b.deg = make([]int, n)
	b.posIdx = make([]int, n)
	b.posStamp = make([]int, n)
	b.assigned = make([]int, n)
	b.centerNew = make([]int, n)
}

// liveSupernodes returns the sorted distinct live supernode ids, deduped
// with stamp scratch instead of a per-pass map.
func (b *RCBuilder) liveSupernodes() []int {
	b.seenVal++
	out := b.liveIDs[:0]
	for v := 0; v < b.n; v++ {
		p := b.sn[v]
		if p == -1 || b.seenStamp[p] == b.seenVal {
			continue
		}
		b.seenStamp[p] = b.seenVal
		out = append(out, p)
	}
	sort.Ints(out)
	b.liveIDs = out
	return out
}

// reuseBank returns cur when its shape matches (the sweep then zeroes and
// reseeds its members range by range), else a new bank seeded from seeds.
func reuseBank(cur *GroupBank, members int, universe uint64, budget int, seeds []uint64) (bank *GroupBank, reseed bool) {
	if cur != nil && cur.members == members && cur.budget == budget && cur.universe == universe {
		return cur, true
	}
	return NewGroupBank(members, universe, budget, seeds), false
}

// sweepBank runs one slot-owned plan sweep into bank under the current
// contraction, zeroing and reseeding its members from b.memberSeeds first
// if asked. Every member is live, so the ranges cover the whole bank.
func (b *RCBuilder) sweepBank(plan *stream.Stream, bank *GroupBank, reseed bool) {
	p := rcPass{n: b.n, sn: b.sn, snSlot: b.snSlot, bank: bank}
	b.sweep.run(bank.members, b.ingestWorkers, []*sketchcore.Arena{bank.cells}, func(lo, hi int, marks [][]uint64) {
		if reseed {
			bank.resetMembers(lo, hi)
			bank.seedMembers(b.memberSeeds, lo, hi)
		}
		p.sweep(plan.Updates, lo, hi, marks[0])
	})
}

// collectBank drains every member's sampler, decode-worker-parallel; the
// results land in b.dec.items in member order.
func (b *RCBuilder) collectBank(bank *GroupBank, members int) {
	b.dec.run(members, b.decodeWorkers, func(w *decodeWorker, i int) {
		w.collect(i, func(buf []uint64) []uint64 {
			return bank.CollectInto(i, buf)
		})
	})
}

// Build constructs the spanner for st (st.N must equal the builder's n).
func (b *RCBuilder) Build(st *stream.Stream) RCResult {
	if st.N != b.n {
		panic("spanner: stream vertex count does not match builder")
	}
	n, k := b.n, b.k
	if n == 0 {
		// Empty graph: no supernodes, no passes (as in the retained path).
		return RCResult{Spanner: graph.New(0), StretchBound: math.Pow(float64(k), math.Log2(5)) - 1}
	}
	b.ensureScratch()
	plan := st.Coalesce()
	spanner := graph.New(n)
	sn := b.sn
	for v := range sn {
		sn[v] = v
	}
	numSuper := n
	passes := 0
	var history []int
	var phaseNanos []int64

	maxPasses := int(math.Ceil(math.Log2(float64(k))))
	for i := 0; i < maxPasses && numSuper > 1; i++ {
		t0 := time.Now()
		di := int(math.Ceil(math.Pow(float64(n), math.Pow(2, float64(i))/float64(k))))
		if di < 2 {
			di = 2
		}
		// ---- pass: per-supernode distinct-neighbor sampling ----
		live := b.liveSupernodes()
		if len(live) <= 1 {
			break
		}
		L := len(live)
		passSeed := hashing.DeriveSeed(b.seed, 0x2c00+uint64(i))
		for idx, p := range live {
			b.snSlot[p] = idx
			b.memberSeeds[idx] = hashing.DeriveSeed(passSeed, uint64(p))
		}
		for len(b.passBanks) <= i {
			b.passBanks = append(b.passBanks, nil)
		}
		bank, reseed := reuseBank(b.passBanks[i], L, uint64(n)*uint64(n), di, b.memberSeeds[:L])
		b.passBanks[i] = bank
		b.sweepBank(plan, bank, reseed)
		passes++

		// ---- build H_i on supernodes with witness edges ----
		// Collected candidates become directed adjacency entries in CSR
		// scratch: counting-sorted by source, then deduped per source with
		// stamp scratch. Last-collected witness per supernode pair wins and
		// neighbor sets come out in first-seen order — exactly the nested
		// witness maps' final state, without the maps.
		b.collectBank(bank, L)
		triples := b.triples[:0]
		for idx := range live {
			for _, item := range b.dec.items[idx] {
				u, v := stream.EdgeFromIndex(item, n)
				pu, pv := sn[u], sn[v]
				if pu == -1 || pv == -1 || pu == pv {
					continue
				}
				triples = append(triples, rcTriple{
					pi: int32(b.snSlot[pu]), pj: int32(b.snSlot[pv]),
					w: rcWitness{u: int32(u), v: int32(v)},
				})
			}
		}
		b.triples = triples
		start, cur := b.start[:L+1], b.cur[:L+1]
		for j := 0; j <= L; j++ {
			start[j] = 0
		}
		for _, t := range triples {
			start[t.pi]++
			start[t.pj]++
		}
		total := 0
		for j := 0; j < L; j++ {
			c := start[j]
			start[j] = total
			cur[j] = total
			total += c
		}
		start[L] = total
		if cap(b.nbr) < total {
			b.nbr = make([]int32, total)
			b.wit = make([]rcWitness, total)
		}
		nbr, wit := b.nbr[:total], b.wit[:total]
		for _, t := range triples {
			nbr[cur[t.pi]], wit[cur[t.pi]] = t.pj, t.w
			cur[t.pi]++
			nbr[cur[t.pj]], wit[cur[t.pj]] = t.pi, t.w
			cur[t.pj]++
		}
		deg := b.deg[:L]
		for j := 0; j < L; j++ {
			b.posVal++
			w := start[j]
			for e := start[j]; e < start[j+1]; e++ {
				q := int(nbr[e])
				if b.posStamp[q] == b.posVal {
					wit[b.posIdx[q]] = wit[e] // repeat pair: last witness wins
					continue
				}
				b.posStamp[q] = b.posVal
				b.posIdx[q] = w
				nbr[w], wit[w] = nbr[e], wit[e]
				w++
			}
			deg[j] = w - start[j]
		}
		// All sampled edges join the spanner (bounded by reps*buckets per
		// supernode ~ O(d_i) each; each unordered pair once).
		for j := 0; j < L; j++ {
			for e := start[j]; e < start[j]+deg[j]; e++ {
				if int(nbr[e]) > j {
					spanner.AddEdge(int(wit[e].u), int(wit[e].v), 1)
				}
			}
		}

		// ---- choose centers: maximal independent set in H_i^2 among
		// high-degree supernodes (compact order == ascending supernode id,
		// since live is sorted) ----
		high := b.high[:0]
		for j := 0; j < L; j++ {
			if deg[j] >= di {
				high = append(high, j)
			}
		}
		b.high = high
		assigned, centerNew := b.assigned[:L], b.centerNew[:L]
		for j := 0; j < L; j++ {
			assigned[j] = -1
			centerNew[j] = -1
		}
		numCenters := 0
		for _, q := range high {
			if assigned[q] != -1 {
				continue
			}
			// q is at distance >= 3 from every center (otherwise it would
			// have been assigned): make it a center. Centers are numbered in
			// creation order — ascending supernode id — which fixes the
			// relabeling deterministically.
			centerNew[q] = numCenters
			numCenters++
			assigned[q] = q
			for e := start[q]; e < start[q]+deg[q]; e++ {
				if nb := int(nbr[e]); assigned[nb] == -1 {
					assigned[nb] = q
				}
			}
			// 2-hop: neighbors' neighbors that are high-degree get q too
			// (this realizes "within 2 hops" assignment).
			for e := start[q]; e < start[q]+deg[q]; e++ {
				nb := int(nbr[e])
				for e2 := start[nb]; e2 < start[nb]+deg[nb]; e2++ {
					if nb2 := int(nbr[e2]); assigned[nb2] == -1 && deg[nb2] >= di {
						assigned[nb2] = q
					}
				}
			}
		}

		// ---- collapse ----
		next := b.next
		for v := 0; v < n; v++ {
			p := sn[v]
			if p == -1 {
				next[v] = -1
				continue
			}
			if c := assigned[b.snSlot[p]]; c != -1 {
				next[v] = centerNew[c]
				continue
			}
			// Unassigned: low-degree supernode, fully recovered. Its edges
			// are already in the spanner; it retires from contraction.
			next[v] = -1
		}
		b.sn, b.next = next, sn
		sn = next
		numSuper = numCenters
		history = append(history, numSuper)
		phaseNanos = append(phaseNanos, time.Since(t0).Nanoseconds())
	}

	// ---- final pass: one edge per adjacent pair of surviving supernodes;
	// edges at retired regions were recorded when the regions retired.
	live := b.liveSupernodes()
	if len(live) > 1 {
		t0 := time.Now()
		L := len(live)
		passSeed := hashing.DeriveSeed(b.seed, 0x2cff)
		for idx, p := range live {
			b.snSlot[p] = idx
			b.memberSeeds[idx] = hashing.DeriveSeed(passSeed, uint64(p))
		}
		bank, reseed := reuseBank(b.finalBank, L, uint64(n)*uint64(n), L, b.memberSeeds[:L])
		b.finalBank = bank
		b.sweepBank(plan, bank, reseed)
		passes++
		b.collectBank(b.finalBank, L)
		for idx := range live {
			for _, item := range b.dec.items[idx] {
				u, v := stream.EdgeFromIndex(item, n)
				spanner.AddEdge(u, v, 1)
			}
		}
		phaseNanos = append(phaseNanos, time.Since(t0).Nanoseconds())
	}

	return RCResult{
		Spanner:          spanner,
		Passes:           passes,
		StretchBound:     math.Pow(float64(k), math.Log2(5)) - 1,
		SupernodeHistory: history,
		PhaseNanos:       phaseNanos,
		PlanEdges:        plan.Len(),
	}
}

// rcPass is one contraction pass's view for the slot-owned sweep: the
// (read-only) supernode labeling plus the pass's bank.
type rcPass struct {
	n      int
	sn     []int
	snSlot []int
	bank   *GroupBank
}

// sweep applies the coalesced plan edges (canonical U < V) that land on
// members [lo, hi): each inter-supernode edge feeds both endpoints' group
// samplers, grouped by the far supernode, carrying the original edge index
// as the item; the slots written are recorded in marks.
func (p *rcPass) sweep(ups []stream.Update, lo, hi int, marks []uint64) {
	sn, snSlot := p.sn, p.snSlot
	nn := uint64(p.n)
	for _, up := range ups {
		pu, pv := sn[up.U], sn[up.V]
		if pu == -1 || pv == -1 || pu == pv {
			continue
		}
		idx := uint64(up.U)*nn + uint64(up.V)
		if m := snSlot[pu]; m >= lo && m < hi {
			p.bank.updateMarked(marks, m, uint64(pv), idx, up.Delta)
		}
		if m := snSlot[pv]; m >= lo && m < hi {
			p.bank.updateMarked(marks, m, uint64(pu), idx, up.Delta)
		}
	}
}
