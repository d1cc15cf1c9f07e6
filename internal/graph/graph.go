// Package graph provides exact graph algorithms used as ground truth and as
// post-processing machinery by the sketch algorithms:
//
//   - the weighted undirected multigraph representation shared by all
//     modules;
//   - BFS distances (spanner stretch verification, Sec. 5);
//   - Dinic max-flow / min s-t cut (SIMPLE-SPARSIFICATION post-processing
//     and Gomory-Hu construction, Sec. 3);
//   - Stoer-Wagner global min cut (exact baseline for Fig 1);
//   - Gomory-Hu trees with real cut partitions (Fig 3 step 4);
//   - k-edge-connected classes, the partition under lambda(u, v) >= k
//     (Fig 2 step 3);
//   - cut evaluation and random/planted cut enumeration for sparsifier
//     accuracy measurement.
package graph

import (
	"fmt"
	"sort"

	"graphsketch/internal/stream"
)

// Edge is an undirected weighted edge with U < V.
type Edge struct {
	U, V int
	W    int64
}

// Graph is a weighted undirected graph on vertices [0, N). Parallel edge
// insertions accumulate weight; weight-zero edges vanish. The zero-cost
// query path (adjacency) is built lazily and invalidated by mutation.
type Graph struct {
	n   int
	w   map[uint64]int64 // canonical edge index -> weight
	adj [][]Neighbor     // lazy cache
}

// Neighbor is one adjacency entry.
type Neighbor struct {
	To int
	W  int64
}

// New creates an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{n: n, w: make(map[uint64]int64)}
}

// FromStream replays a dynamic stream into its final graph.
func FromStream(s *stream.Stream) *Graph {
	g := New(s.N)
	for idx, w := range s.Multiplicities() {
		u, v := stream.EdgeFromIndex(idx, s.N)
		g.AddEdge(u, v, w)
	}
	return g
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// Reset empties the graph and resizes it to n vertices, keeping the edge
// map's storage so decode loops can recycle one Graph across extractions
// instead of allocating per call.
func (g *Graph) Reset(n int) {
	g.n = n
	clear(g.w)
	g.adj = nil
}

// AddEdge accumulates weight w onto edge {u, v}. Self-loops are ignored.
// A negative w acts as deletion; the edge disappears when weight reaches 0.
func (g *Graph) AddEdge(u, v int, w int64) {
	if u == v || w == 0 {
		return
	}
	idx := stream.EdgeIndex(u, v, g.n)
	g.w[idx] += w
	if g.w[idx] == 0 {
		delete(g.w, idx)
	}
	g.adj = nil
}

// Weight returns the weight of edge {u, v} (0 if absent).
func (g *Graph) Weight(u, v int) int64 {
	if u == v {
		return 0
	}
	return g.w[stream.EdgeIndex(u, v, g.n)]
}

// HasEdge reports whether {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool { return g.Weight(u, v) != 0 }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return len(g.w) }

// TotalWeight returns the sum of edge weights.
func (g *Graph) TotalWeight() int64 {
	var t int64
	for _, w := range g.w {
		t += w
	}
	return t
}

// Edges returns all edges sorted by (U, V) for deterministic iteration.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.w))
	for idx, w := range g.w {
		u, v := stream.EdgeFromIndex(idx, g.n)
		out = append(out, Edge{U: u, V: v, W: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Adjacency returns the adjacency lists (cached until the next mutation).
func (g *Graph) Adjacency() [][]Neighbor {
	if g.adj != nil {
		return g.adj
	}
	adj := make([][]Neighbor, g.n)
	for idx, w := range g.w {
		u, v := stream.EdgeFromIndex(idx, g.n)
		adj[u] = append(adj[u], Neighbor{To: v, W: w})
		adj[v] = append(adj[v], Neighbor{To: u, W: w})
	}
	g.adj = adj
	return adj
}

// Degree returns the number of distinct neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.Adjacency()[u]) }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for idx, w := range g.w {
		c.w[idx] = w
	}
	return c
}

// Subgraph returns the graph containing only edges accepted by keep.
func (g *Graph) Subgraph(keep func(Edge) bool) *Graph {
	out := New(g.n)
	for _, e := range g.Edges() {
		if keep(e) {
			out.AddEdge(e.U, e.V, e.W)
		}
	}
	return out
}

// CutValue returns the total weight of edges crossing (side, V \ side),
// where side[v] marks membership. len(side) must equal N.
func (g *Graph) CutValue(side []bool) int64 {
	var total int64
	for idx, w := range g.w {
		u, v := stream.EdgeFromIndex(idx, g.n)
		if side[u] != side[v] {
			total += w
		}
	}
	return total
}

// String implements fmt.Stringer for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, w=%d)", g.n, len(g.w), g.TotalWeight())
}
