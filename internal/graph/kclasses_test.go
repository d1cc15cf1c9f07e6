package graph

import (
	"testing"

	"graphsketch/internal/hashing"
)

// checkKClasses holds KClasses to its contract against the capped-flow
// oracle: two vertices share a class iff their min cut reaches k, and no
// more than 2(n-1) flows run.
func checkKClasses(t testing.TB, g *Graph, k int64, sc *ClassScratch) {
	t.Helper()
	n := g.N()
	class, flows := g.KClasses(k, sc)
	if len(class) != n {
		t.Fatalf("n=%d k=%d: %d labels", n, k, len(class))
	}
	if n > 0 && flows > 2*(n-1) {
		t.Fatalf("n=%d k=%d: %d flows, bound %d", n, k, flows, 2*(n-1))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			want := g.MinCutSTCapped(u, v, k) >= k
			if got := class[u] == class[v]; got != want {
				t.Fatalf("n=%d k=%d %v: same class(%d,%d) = %v, min cut >= k is %v",
					n, k, g, u, v, got, want)
			}
		}
	}
}

// randomMultigraph inserts m random edges of weight 1..maxW on n vertices;
// repeated pairs accumulate, so pairs carry multi-edge weights.
func randomMultigraph(r *hashing.RNG, n, m int, maxW int64) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	for i := 0; i < m; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n), 1+int64(r.Intn(int(maxW))))
	}
	return g
}

// maxWeightedDegree returns the largest weighted vertex degree of g.
func maxWeightedDegree(g *Graph) int64 {
	var best int64
	for _, nbrs := range g.Adjacency() {
		var d int64
		for _, nb := range nbrs {
			d += nb.W
		}
		best = max(best, d)
	}
	return best
}

func TestKClassesMatchesCappedFlow(t *testing.T) {
	r := hashing.NewRNG(47)
	var graphs []*Graph
	// n in {0, 1, 2}.
	graphs = append(graphs, New(0), New(1), New(2))
	g2 := New(2)
	g2.AddEdge(0, 1, 3)
	graphs = append(graphs, g2)
	// Random weighted multigraphs, sparse to dense.
	for i := 0; i < 24; i++ {
		n := 3 + r.Intn(12)
		graphs = append(graphs, randomMultigraph(r, n, n*(1+r.Intn(6)), 4))
	}
	// Disconnected: two dense blocks, a light bridge-free gap and isolated
	// vertices at both ends of the index range.
	for i := 0; i < 6; i++ {
		a, b := randomMultigraph(r, 6, 30, 3), randomMultigraph(r, 5, 20, 3)
		g := New(14)
		for _, e := range a.Edges() {
			g.AddEdge(e.U+1, e.V+1, e.W)
		}
		for _, e := range b.Edges() {
			g.AddEdge(e.U+8, e.V+8, e.W)
		}
		graphs = append(graphs, g)
	}
	// Negative weights, which a stream that deleted more than it inserted
	// leaves in a witness: the flow gives them no capacity.
	for i := 0; i < 6; i++ {
		g := randomMultigraph(r, 9, 40, 4)
		for j := 0; j < 4; j++ {
			g.AddEdge(r.Intn(9), r.Intn(9), -1-int64(r.Intn(6)))
		}
		graphs = append(graphs, g)
	}
	var sc ClassScratch // shared across sizes, as a decode worker shares it
	for _, g := range graphs {
		for _, k := range []int64{0, 1, 2, 10, maxWeightedDegree(g) + 1} {
			checkKClasses(t, g, k, &sc)
		}
	}
}

func FuzzKClasses(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 1, 2, 2, 2, 3, 1, 3, 4, 9}, uint8(2))
	f.Add([]byte{9, 0, 1, 7, 2, 3, 7, 0, 2, 1, 1, 2, 0}, uint8(3))
	f.Add([]byte{2}, uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		if len(data) == 0 {
			checkKClasses(t, New(0), int64(k), &ClassScratch{})
			return
		}
		n := int(data[0] % 13)
		g := New(n)
		if n >= 2 {
			for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
				g.AddEdge(int(rest[0])%n, int(rest[1])%n, int64(rest[2]%12)-3)
			}
		}
		checkKClasses(t, g, int64(k%24), &ClassScratch{})
	})
}
