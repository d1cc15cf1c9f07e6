package graph

import (
	"testing"

	"graphsketch/internal/stream"
)

func TestAddEdgeAccumulates(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 3)
	if g.Weight(0, 1) != 5 {
		t.Fatalf("weight = %d, want 5", g.Weight(0, 1))
	}
	g.AddEdge(0, 1, -5)
	if g.HasEdge(0, 1) || g.NumEdges() != 0 {
		t.Fatal("edge should vanish at weight 0")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 1, 4)
	if g.NumEdges() != 0 {
		t.Fatal("self loop must be ignored")
	}
}

func TestFromStream(t *testing.T) {
	s := &stream.Stream{N: 4, Updates: []stream.Update{
		{U: 0, V: 1, Delta: 1}, {U: 2, V: 3, Delta: 1}, {U: 0, V: 1, Delta: -1},
	}}
	g := FromStream(s)
	if g.NumEdges() != 1 || !g.HasEdge(2, 3) {
		t.Fatalf("FromStream wrong: %v", g.Edges())
	}
}

func TestEdgesSortedDeterministic(t *testing.T) {
	g := New(10)
	g.AddEdge(5, 2, 1)
	g.AddEdge(0, 9, 1)
	g.AddEdge(3, 1, 1)
	es := g.Edges()
	for i := 1; i < len(es); i++ {
		if es[i-1].U > es[i].U || (es[i-1].U == es[i].U && es[i-1].V >= es[i].V) {
			t.Fatalf("edges not sorted: %v", es)
		}
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge not canonical: %v", e)
		}
	}
}

func TestAdjacencyCacheInvalidation(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	if len(g.Adjacency()[0]) != 1 {
		t.Fatal("adjacency wrong")
	}
	g.AddEdge(0, 2, 1)
	if len(g.Adjacency()[0]) != 2 {
		t.Fatal("adjacency cache not invalidated")
	}
}

func TestCutValue(t *testing.T) {
	g := FromStream(stream.Barbell(10, 2))
	side := make([]bool, 10)
	for i := 0; i < 5; i++ {
		side[i] = true
	}
	if got := g.CutValue(side); got != 2 {
		t.Fatalf("barbell bridge cut = %d, want 2", got)
	}
}

func TestDSUBasics(t *testing.T) {
	d := NewDSU(6)
	if d.Count() != 6 {
		t.Fatal("initial count")
	}
	if !d.Union(0, 1) || !d.Union(2, 3) || !d.Union(0, 2) {
		t.Fatal("unions should succeed")
	}
	if d.Union(1, 3) {
		t.Fatal("redundant union should return false")
	}
	if !d.Same(0, 3) || d.Same(0, 4) {
		t.Fatal("Same wrong")
	}
	if d.Count() != 3 {
		t.Fatalf("count = %d, want 3", d.Count())
	}
	if d.SizeOf(3) != 4 {
		t.Fatalf("SizeOf = %d, want 4", d.SizeOf(3))
	}
	comp := d.Components()
	if comp[0] != comp[1] || comp[0] != comp[2] || comp[0] != comp[3] || comp[4] == comp[0] || comp[4] == comp[5] {
		t.Fatalf("components wrong: %v", comp)
	}
}

func TestBFSPathDistances(t *testing.T) {
	g := FromStream(stream.Path(6))
	d := g.BFS(0)
	for i := 0; i < 6; i++ {
		if d[i] != i {
			t.Fatalf("path distance d[%d]=%d", i, d[i])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	d := g.BFS(0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Fatal("unreachable must be -1")
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	g := FromStream(stream.DisjointCliques(30, 3))
	_, c := g.Components()
	if c != 3 {
		t.Fatalf("components = %d, want 3", c)
	}
	if g.IsConnected() {
		t.Fatal("should be disconnected")
	}
	if !FromStream(stream.Cycle(10)).IsConnected() {
		t.Fatal("cycle should be connected")
	}
}

func TestDiameter(t *testing.T) {
	if d := FromStream(stream.Path(7)).Diameter(); d != 6 {
		t.Fatalf("path diameter = %d", d)
	}
	if d := FromStream(stream.Complete(7)).Diameter(); d != 1 {
		t.Fatalf("clique diameter = %d", d)
	}
	if d := FromStream(stream.Cycle(8)).Diameter(); d != 4 {
		t.Fatalf("cycle diameter = %d", d)
	}
}

func TestIsBipartite(t *testing.T) {
	ok, color := FromStream(stream.Grid(3, 4)).IsBipartite()
	if !ok {
		t.Fatal("grid is bipartite")
	}
	g := FromStream(stream.Grid(3, 4))
	for _, e := range g.Edges() {
		if color[e.U] == color[e.V] {
			t.Fatal("invalid 2-coloring")
		}
	}
	if ok, _ := FromStream(stream.Cycle(5)).IsBipartite(); ok {
		t.Fatal("odd cycle is not bipartite")
	}
	if ok, _ := FromStream(stream.Complete(4)).IsBipartite(); ok {
		t.Fatal("K4 is not bipartite")
	}
}

func TestMinCutSTPath(t *testing.T) {
	g := FromStream(stream.Path(5))
	val, side := g.MinCutST(0, 4)
	if val != 1 {
		t.Fatalf("path s-t cut = %d, want 1", val)
	}
	if !side[0] || side[4] {
		t.Fatal("cut side must separate s from t")
	}
	if g.CutValue(side) != 1 {
		t.Fatal("side must realize the cut value")
	}
}

func TestMinCutSTWeighted(t *testing.T) {
	// Two parallel 2-edge routes with different bottlenecks.
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 3, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 3, 7)
	val, side := g.MinCutST(0, 3)
	if val != 5 { // min(5,2)=2 via top, min(3,7)=3 via bottom -> 2+3=5
		t.Fatalf("weighted s-t cut = %d, want 5", val)
	}
	if g.CutValue(side) != 5 {
		t.Fatal("returned side inconsistent with value")
	}
}

func TestMinCutSTCapped(t *testing.T) {
	g := FromStream(stream.Complete(8)) // 0-7 connectivity is 7
	if got := g.MinCutSTCapped(0, 7, 3); got != 3 {
		t.Fatalf("capped cut = %d, want cap 3", got)
	}
	if got := g.MinCutSTCapped(0, 7, 100); got != 7 {
		t.Fatalf("uncapped K8 s-t cut = %d, want 7", got)
	}
}

func TestEdgeConnectivityMatchesStoerWagner(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := FromStream(stream.GNP(16, 0.4, seed))
		if !g.IsConnected() {
			continue
		}
		sw, _ := g.StoerWagner()
		fc := g.EdgeConnectivity()
		if sw != fc {
			t.Fatalf("seed %d: StoerWagner %d != flow connectivity %d", seed, sw, fc)
		}
	}
}

func TestStoerWagnerBarbell(t *testing.T) {
	for _, bridges := range []int{1, 2, 5} {
		g := FromStream(stream.Barbell(16, bridges))
		val, side := g.StoerWagner()
		if val != int64(bridges) {
			t.Fatalf("bridges=%d: min cut %d", bridges, val)
		}
		if g.CutValue(side) != val {
			t.Fatal("side does not realize min cut")
		}
	}
}

func TestStoerWagnerCycle(t *testing.T) {
	g := FromStream(stream.Cycle(12))
	val, _ := g.StoerWagner()
	if val != 2 {
		t.Fatalf("cycle min cut = %d, want 2", val)
	}
}

func TestStoerWagnerComplete(t *testing.T) {
	g := FromStream(stream.Complete(9))
	val, _ := g.StoerWagner()
	if val != 8 {
		t.Fatalf("K9 min cut = %d, want 8", val)
	}
}

func TestStoerWagnerWeighted(t *testing.T) {
	// Triangle with weights 1, 10, 10: min cut isolates the light corner
	// pair: min cut = 1+10? Cuts: {0}: w01+w02=11, {1}: w01+w12=11,
	// {2}: w02+w12=20 -> min 11.
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 10)
	g.AddEdge(1, 2, 10)
	val, _ := g.StoerWagner()
	if val != 11 {
		t.Fatalf("weighted triangle min cut = %d, want 11", val)
	}
}

func TestStoerWagnerDisconnected(t *testing.T) {
	g := FromStream(stream.DisjointCliques(20, 2))
	val, side := g.StoerWagner()
	if val != 0 {
		t.Fatalf("disconnected min cut = %d, want 0", val)
	}
	if g.CutValue(side) != 0 {
		t.Fatal("side must have empty crossing")
	}
}

// MinCutBetween returns the min u-v cut value: the minimum edge weight on
// the tree path between u and v. It is the Gomory-Hu tests' oracle: the
// tree is correct iff it answers every pair as a max-flow does.
func (t *GHTree) MinCutBetween(u, v int) int64 {
	min := int64(1) << 62
	du := t.depths()
	uu, vv := u, v
	for uu != vv {
		if du[uu] >= du[vv] {
			if t.Weight[uu] < min {
				min = t.Weight[uu]
			}
			uu = t.Parent[uu]
		} else {
			if t.Weight[vv] < min {
				min = t.Weight[vv]
			}
			vv = t.Parent[vv]
		}
	}
	return min
}

func TestGomoryHuPath(t *testing.T) {
	// On a path with distinct weights, min u-v cut = min weight between.
	g := New(5)
	weights := []int64{4, 2, 7, 3}
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, weights[i])
	}
	tr := g.GomoryHu()
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			want := int64(1 << 62)
			for i := u; i < v; i++ {
				if weights[i] < want {
					want = weights[i]
				}
			}
			if got := tr.MinCutBetween(u, v); got != want {
				t.Fatalf("path GH cut(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
}

func TestGomoryHuMatchesMaxflowRandom(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := FromStream(stream.GNP(12, 0.4, seed))
		if !g.IsConnected() {
			continue
		}
		tr := g.GomoryHu()
		for u := 0; u < 12; u++ {
			for v := u + 1; v < 12; v++ {
				want, _ := g.MinCutST(u, v)
				if got := tr.MinCutBetween(u, v); got != want {
					t.Fatalf("seed %d: GH(%d,%d)=%d, maxflow=%d", seed, u, v, got, want)
				}
			}
		}
	}
}

func TestGomoryHuCutSidesRealizeValues(t *testing.T) {
	// The defining property Fig 3 needs: the partition induced by each tree
	// edge is an actual min cut of that value.
	for seed := uint64(10); seed < 14; seed++ {
		g := FromStream(stream.GNP(14, 0.35, seed))
		if !g.IsConnected() {
			continue
		}
		tr := g.GomoryHu()
		for v := 0; v < 14; v++ {
			if tr.Parent[v] == -1 {
				continue
			}
			side := tr.CutSide(v)
			if got := g.CutValue(side); got != tr.Weight[v] {
				t.Fatalf("seed %d: induced cut of tree edge (%d,%d) = %d, want %d",
					seed, v, tr.Parent[v], got, tr.Weight[v])
			}
			if side[tr.Parent[v]] || !side[v] {
				t.Fatal("cut side orientation wrong")
			}
		}
	}
}

func TestGomoryHuWeighted(t *testing.T) {
	g := FromStream(stream.WeightedGNP(10, 0.5, 6, 21))
	if !g.IsConnected() {
		t.Skip("unlucky seed")
	}
	tr := g.GomoryHu()
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			want, _ := g.MinCutST(u, v)
			if got := tr.MinCutBetween(u, v); got != want {
				t.Fatalf("weighted GH(%d,%d)=%d, want %d", u, v, got, want)
			}
		}
	}
}

func TestGomoryHuMinCutEdgeBetween(t *testing.T) {
	g := FromStream(stream.Barbell(12, 2))
	tr := g.GomoryHu()
	// u in left clique, v in right: min edge on path must have weight 2.
	e := tr.MinCutEdgeBetween(0, 11)
	if e == -1 || tr.Weight[e] != 2 {
		t.Fatalf("min edge weight on path = %d, want 2", tr.Weight[e])
	}
	side := tr.CutSide(e)
	if g.CutValue(side) != 2 {
		t.Fatal("assigned cut does not realize the bridge cut")
	}
	if side[0] == side[11] {
		t.Fatal("cut must separate the cliques' representatives")
	}
}

func TestSubgraphFilter(t *testing.T) {
	g := FromStream(stream.Complete(6))
	h := g.Subgraph(func(e Edge) bool { return e.U == 0 })
	if h.NumEdges() != 5 {
		t.Fatalf("star subgraph edges = %d", h.NumEdges())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 1)
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatal("clone not independent")
	}
}

func BenchmarkStoerWagnerN64(b *testing.B) {
	g := FromStream(stream.GNP(64, 0.3, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.StoerWagner()
	}
}

func BenchmarkGomoryHuN32(b *testing.B) {
	g := FromStream(stream.GNP(32, 0.4, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GomoryHu()
	}
}

func BenchmarkDinicK64(b *testing.B) {
	g := FromStream(stream.Complete(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MinCutST(0, 63)
	}
}
