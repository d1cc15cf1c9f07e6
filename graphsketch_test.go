package graphsketch

import (
	"math"
	"testing"
)

// Facade-level integration tests: every public type exercised end to end
// through the same entry points the examples use.

func TestConnectivityFacade(t *testing.T) {
	s := DisjointCliques(30, 3)
	c := NewConnectivitySketch(30, 1)
	c.Ingest(s)
	if c.Connected() {
		t.Fatal("three cliques are not connected")
	}
	if got := c.Components(); got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}
	forest := c.SpanningForest()
	if len(forest) != 27 {
		t.Fatalf("forest edges = %d, want 27", len(forest))
	}
}

func TestConnectivityDistributedMerge(t *testing.T) {
	s := Cycle(40)
	parts := s.Partition(4, 9)
	merged := NewConnectivitySketch(40, 5)
	for _, p := range parts {
		site := NewConnectivitySketch(40, 5)
		site.Ingest(p)
		merged.Add(site)
	}
	if !merged.Connected() {
		t.Fatal("merged sites must see the connected cycle")
	}
}

func TestBipartitenessFacade(t *testing.T) {
	b := NewBipartitenessSketch(12, 2)
	b.Ingest(Cycle(12))
	if !b.Bipartite() {
		t.Fatal("even cycle is bipartite")
	}
	b2 := NewBipartitenessSketch(13, 3)
	b2.Ingest(Cycle(13))
	if b2.Bipartite() {
		t.Fatal("odd cycle is not bipartite")
	}
}

func TestMinCutFacade(t *testing.T) {
	s := Barbell(16, 2)
	m := NewMinCutSketchK(16, 8, 7)
	m.Ingest(s)
	res, err := m.MinCut()
	if err != nil || res.Value != 2 {
		t.Fatalf("min cut: got (%d, %v), want 2", res.Value, err)
	}
	if m.Footprint().ResidentBytes <= 0 {
		t.Fatal("resident bytes must be positive")
	}
}

func TestSparsifierFacade(t *testing.T) {
	s := PlantedPartition(24, 2, 0.8, 0.1, 11)
	g := FromStream(s)
	sp := NewSparsifier(24, 0.5, 13)
	sp.Ingest(s)
	h, err := sp.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	if MaxCutError(g, h, 30, 17) > 0.6 {
		t.Fatal("sparsifier too inaccurate")
	}
}

func TestSimpleSparsifierFacade(t *testing.T) {
	s := GNP(20, 0.4, 19)
	g := FromStream(s)
	sp := NewSimpleSparsifier(20, 0.5, 23)
	sp.Ingest(s)
	h, err := sp.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	if MaxCutError(g, h, 30, 29) > 0.6 {
		t.Fatal("simple sparsifier too inaccurate")
	}
}

func TestWeightedSparsifierFacade(t *testing.T) {
	s := WeightedGNP(20, 0.5, 8, 31)
	g := FromStream(s)
	sp := NewWeightedSparsifier(20, 0.5, 8, 37)
	sp.Ingest(s)
	h, err := sp.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	if MaxCutError(g, h, 30, 41) > 0.7 {
		t.Fatal("weighted sparsifier too inaccurate")
	}
}

func TestSubgraphFacade(t *testing.T) {
	s := GNP(20, 0.35, 43)
	g := FromStream(s)
	sk := NewSubgraphSketch(20, 3, 150, 47)
	sk.Ingest(s)
	gamma, eff := sk.Gamma(PatternTriangle)
	if eff < 100 {
		t.Fatalf("effective samples %d too few", eff)
	}
	exactTriangles := float64(ExactTriangles(g))
	estimate := sk.Count(PatternTriangle)
	if exactTriangles > 20 && math.Abs(estimate-exactTriangles)/exactTriangles > 0.6 {
		t.Fatalf("triangle count %v vs exact %v (gamma=%v)", estimate, exactTriangles, gamma)
	}
}

func TestSpannerFacades(t *testing.T) {
	s := GNP(50, 0.25, 53)
	g := FromStream(s)
	bs := BaswanaSenSpanner(s, 3, 59)
	if bs.Passes != 3 {
		t.Fatalf("BS passes = %d, want 3", bs.Passes)
	}
	if st := MeasureStretch(g, bs.Spanner, 10, 61); st > bs.StretchBound {
		t.Fatalf("BS stretch %.2f > bound %.2f", st, bs.StretchBound)
	}
	rc := RecurseConnectSpanner(s, 4, 67)
	if rc.Passes > 3 {
		t.Fatalf("RC passes = %d, want <= log2(4)+1 = 3", rc.Passes)
	}
	if st := MeasureStretch(g, rc.Spanner, 10, 71); st > rc.StretchBound {
		t.Fatalf("RC stretch %.2f > bound %.2f", st, rc.StretchBound)
	}
}

func TestMSTFacade(t *testing.T) {
	s := WeightedGNP(20, 0.4, 8, 91)
	g := FromStream(s)
	_, exact := g.MinimumSpanningForest()
	sk := NewMSTSketch(20, 8, 93)
	sk.Ingest(s)
	forest, total := sk.ApproxMSF()
	_, cc := g.Components()
	if len(forest) != 20-cc {
		t.Fatalf("forest edges %d, want n-cc = %d", len(forest), 20-cc)
	}
	if total < exact || total > 2*exact {
		t.Fatalf("MSF weight %d outside [exact, 2*exact] = [%d, %d]", total, exact, 2*exact)
	}
}

func TestDynamicScenarioEndToEnd(t *testing.T) {
	// A full dynamic session: build communities, bridge them, churn, then
	// cut the bridge — tracked by connectivity + min-cut sketches.
	n := 20
	s := DisjointCliques(n, 2)
	s.Updates = append(s.Updates, Update{U: 0, V: 10, Delta: 1}) // bridge
	s = s.WithChurn(1000, 73)

	conn := NewConnectivitySketch(n, 79)
	conn.Ingest(s)
	if !conn.Connected() {
		t.Fatal("bridged cliques should be connected")
	}

	mc := NewMinCutSketchK(n, 6, 83)
	mc.Ingest(s)
	res, err := mc.MinCut()
	if err != nil || res.Value != 1 {
		t.Fatalf("bridge min cut: got (%d, %v), want 1", res.Value, err)
	}

	// Now cut the bridge.
	s.Updates = append(s.Updates, Update{U: 0, V: 10, Delta: -1})
	conn2 := NewConnectivitySketch(n, 89)
	conn2.Ingest(s)
	if conn2.Connected() {
		t.Fatal("after deleting the bridge the graph splits")
	}
}
