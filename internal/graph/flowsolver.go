package graph

// FlowSolver is a reusable Dinic max-flow engine: the arc arrays, BFS/DFS
// scratch, and capacity snapshot are owned by the solver and recycled across
// Reset/ResetFlow calls, so a caller running many flow queries (Gomory-Hu
// construction, the k-connectivity classes behind SIMPLE-SPARSIFICATION's
// lambda_e < k probes) pays the graph traversal once instead of re-sorting
// the edge list and re-allocating an adjacency structure per query, which
// profiling showed dominated sparsifier decode.
//
// Arc layout replicates the one-shot dinic exactly — per vertex, arcs appear
// in Edges() order (forward arcs where the vertex is the lower endpoint
// interleaved with reverse arcs where it is the higher one) — so BFS levels,
// DFS augmentation order, flow values, and min-cut sides are bit-identical
// to the historical path. That invariant is what keeps Gomory-Hu trees, and
// everything decoded through them, byte-stable across the refactor.
type FlowSolver struct {
	n    int
	to   []int32 // arc target; arc i and i^1 are a residual pair
	cp   []int64 // residual capacity
	orig []int64 // capacities as built, for ResetFlow
	// CSR adjacency: vertex u's arc ids are arcs[start[u]:start[u+1]].
	start []int32
	arcs  []int32
	level []int32
	iter  []int32
	queue []int32
}

// NewFlowSolver returns an empty solver; Reset loads a graph into it.
func NewFlowSolver() *FlowSolver { return &FlowSolver{} }

// Reset loads g into the solver, reusing prior allocations. Each undirected
// edge {u,v} of weight w becomes a residual arc pair with capacity w in both
// directions (the standard undirected reduction the one-shot dinic used).
func (fs *FlowSolver) Reset(g *Graph) {
	fs.ResetEdges(g.n, g.Edges())
}

// ResetEdges loads an explicit edge list (in the order given — callers that
// need bit-stable augmentation order pass Edges()-sorted lists).
func (fs *FlowSolver) ResetEdges(n int, edges []Edge) {
	fs.n = n
	m2 := 2 * len(edges)
	fs.to = grow32(fs.to, m2)
	fs.cp = grow64(fs.cp, m2)
	fs.orig = grow64(fs.orig, m2)
	fs.start = grow32(fs.start, n+1)
	fs.arcs = grow32(fs.arcs, m2)
	fs.level = grow32(fs.level, n)
	fs.iter = grow32(fs.iter, n)
	fs.queue = grow32(fs.queue, n)

	for i := range fs.start {
		fs.start[i] = 0
	}
	for i, e := range edges {
		fs.to[2*i] = int32(e.V)
		fs.to[2*i+1] = int32(e.U)
		fs.cp[2*i] = e.W
		fs.cp[2*i+1] = e.W
		fs.start[e.U+1]++
		fs.start[e.V+1]++
	}
	copy(fs.orig, fs.cp)
	for u := 0; u < n; u++ {
		fs.start[u+1] += fs.start[u]
	}
	// Stable counting sort of arcs by tail, preserving creation order per
	// vertex — the exact per-vertex arc order the one-shot dinic built.
	fill := append(fs.iter[:0], fs.start[:n]...) // reuse iter as cursor
	for i, e := range edges {
		fs.arcs[fill[e.U]] = int32(2 * i)
		fill[e.U]++
		fs.arcs[fill[e.V]] = int32(2*i + 1)
		fill[e.V]++
	}
}

// ResetFlow restores the capacities loaded by the last Reset, so another
// s-t query can run on the same graph without rebuilding the arc arrays.
func (fs *FlowSolver) ResetFlow() {
	copy(fs.cp, fs.orig)
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func grow64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func (fs *FlowSolver) bfs(s int) {
	for i := range fs.level[:fs.n] {
		fs.level[i] = -1
	}
	q := fs.queue[:0]
	q = append(q, int32(s))
	fs.level[s] = 0
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, ai := range fs.arcs[fs.start[u]:fs.start[u+1]] {
			if fs.cp[ai] > 0 && fs.level[fs.to[ai]] < 0 {
				fs.level[fs.to[ai]] = fs.level[u] + 1
				q = append(q, fs.to[ai])
			}
		}
	}
}

func (fs *FlowSolver) dfs(u, t int, f int64) int64 {
	if u == t {
		return f
	}
	for ; fs.iter[u] < fs.start[u+1]-fs.start[u]; fs.iter[u]++ {
		ai := fs.arcs[fs.start[u]+fs.iter[u]]
		v := fs.to[ai]
		if fs.cp[ai] > 0 && fs.level[u] < fs.level[v] {
			pushed := f
			if fs.cp[ai] < pushed {
				pushed = fs.cp[ai]
			}
			got := fs.dfs(int(v), t, pushed)
			if got > 0 {
				fs.cp[ai] -= got
				fs.cp[ai^1] += got
				return got
			}
		}
	}
	return 0
}

// MaxFlowCapped computes max flow from s to t over the current residual
// capacities, stopping once flow >= flowCap (pass MaxFlowValue for exact).
// The residual state is left as the computation ends; call ResetFlow before
// reusing the same loaded graph for another query.
func (fs *FlowSolver) MaxFlowCapped(s, t int, flowCap int64) int64 {
	var flow int64
	for flow < flowCap {
		fs.bfs(s)
		if fs.level[t] < 0 {
			return flow
		}
		for i := range fs.iter[:fs.n] {
			fs.iter[i] = 0
		}
		for {
			f := fs.dfs(s, t, flowCap-flow)
			if f == 0 {
				break
			}
			flow += f
			if flow >= flowCap {
				return flow
			}
		}
	}
	return flow
}

// MaxFlowValue is the cap to pass MaxFlowCapped for an exact max flow.
const MaxFlowValue = inf64

// MinCutSideInto writes the source side of the min cut (vertices reachable
// from s in the residual graph) into side, which must have length n. Call
// after MaxFlowCapped ran uncapped.
func (fs *FlowSolver) MinCutSideInto(s int, side []bool) {
	for i := range side {
		side[i] = false
	}
	q := fs.queue[:0]
	q = append(q, int32(s))
	side[s] = true
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, ai := range fs.arcs[fs.start[u]:fs.start[u+1]] {
			if fs.cp[ai] > 0 && !side[fs.to[ai]] {
				side[fs.to[ai]] = true
				q = append(q, fs.to[ai])
			}
		}
	}
}
