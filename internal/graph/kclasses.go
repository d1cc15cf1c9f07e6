package graph

// k-edge-connected classes: the partition of V under λ(u, v) >= k.
//
// Fig 2 step 3 (SIMPLE-SPARSIFICATION) only asks whether λ_e(H_i) < k, never
// for the value of λ_e. The relation λ(u, v) >= k is an equivalence, since
// λ(a, c) >= min(λ(a, b), λ(b, c)), so one class label per vertex answers
// every such probe: λ(u, v) < k iff u and v carry different labels. Building
// the labels takes at most 2(n-1) max-flows, each capped at k, on one loaded
// solver — much cheaper than a Gomory-Hu tree, whose n-1 flows are uncapped
// and each run on a freshly contracted graph.

// ClassScratch is KClasses' reusable working memory: a flow solver, the
// cut-side buffer and the block bookkeeping. The zero value is ready to
// use; one goroutine owns it at a time.
type ClassScratch struct {
	fs     FlowSolver
	side   []bool
	perm   []int
	blocks []int // stack of pending blocks, as [lo, hi) pairs into perm
}

// KClasses labels every vertex with its class under λ(u, v) >= k, where λ
// is the weighted min u-v cut of g (negative weights carry no capacity):
// class[u] == class[v] iff λ(u, v) >= k. A vertex whose weighted degree is
// below k is alone in its class; k <= 0 puts all of V in one class. Labels are 0, 1, ... in a deterministic order. It
// also returns the number of max-flows run, at most 2(n-1).
//
// A block of vertices not yet told apart is refined from its first member
// r: a flow from r to another member v that reaches k puts v in r's class;
// one that stops below k is an exact min cut, every pair across its side S
// has λ < k, and the untested members outside S become a new block. Each
// flow either settles one vertex in a class or splits a block, hence the
// bound.
func (g *Graph) KClasses(k int64, sc *ClassScratch) (class []int, flows int) {
	n := g.n
	class = make([]int, n)
	fs := &sc.fs
	fs.Reset(g)
	if cap(sc.side) < n {
		sc.side = make([]bool, n)
		sc.perm = make([]int, n)
	}
	side, perm := sc.side[:n], sc.perm[:0]

	// λ(v, ·) <= weighted degree of v: a vertex below k is a class of its
	// own without any flow. Only positive weights count, as in the flow (a
	// negative weight, left by a stream that deleted more than it inserted,
	// carries nothing).
	next := 0
	for v := 0; v < n; v++ {
		var deg int64
		for _, ai := range fs.arcs[fs.start[v]:fs.start[v+1]] {
			deg += max(fs.orig[ai], 0)
		}
		if deg < k {
			class[v] = next
			next++
		} else {
			perm = append(perm, v)
		}
	}
	blocks := sc.blocks[:0]
	if len(perm) > 0 {
		blocks = append(blocks, 0, len(perm))
	}
	for len(blocks) > 0 {
		lo, hi := blocks[len(blocks)-2], blocks[len(blocks)-1]
		blocks = blocks[:len(blocks)-2]
		r := perm[lo]
		id := next
		next++
		class[r] = id
		for i := lo + 1; i < hi; {
			v := perm[i]
			fs.ResetFlow()
			flows++
			if fs.MaxFlowCapped(r, v, k) >= k {
				class[v] = id
				i++
				continue
			}
			// Keep the untested members on r's side in this block; the rest
			// (v among them) split off.
			fs.MinCutSideInto(r, side)
			j := i
			for t := i; t < hi; t++ {
				if side[perm[t]] {
					perm[j], perm[t] = perm[t], perm[j]
					j++
				}
			}
			blocks = append(blocks, j, hi)
			hi = j
		}
	}
	sc.perm, sc.blocks = perm, blocks
	return class, flows
}
