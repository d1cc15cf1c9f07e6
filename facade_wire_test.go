package graphsketch

import (
	"testing"
)

// Facade-level coverage of the merge and wire surface: MergeMany,
// MergeBytes, MarshalBinaryCompact, and Footprint on every sketch type, checked through
// query answers (internal bit-identity is pinned by the per-package
// tests).

func TestMergeBytesOnZeroValueSketchErrors(t *testing.T) {
	var c ConnectivitySketch
	if err := c.MergeBytes([]byte("AGM2junk")); err == nil {
		t.Fatal("zero-value MergeBytes must error, not panic or succeed")
	}
	var m MinCutSketch
	if err := m.MergeBytes(nil); err == nil {
		t.Fatal("zero-value MinCutSketch.MergeBytes must error")
	}
}

func TestConnectivityMergeManyAndBytes(t *testing.T) {
	const n, seed = 30, 5
	st := PlantedPartition(n, 3, 0.7, 0.05, seed)
	parts := st.Partition(4, 2)

	whole := NewConnectivitySketch(n, seed)
	whole.Ingest(st)

	sites := make([]*ConnectivitySketch, len(parts))
	coord := NewConnectivitySketch(n, seed)
	bytesCoord := NewConnectivitySketch(n, seed)
	for i, p := range parts {
		sites[i] = NewConnectivitySketch(n, seed)
		sites[i].Ingest(p)
		wb, err := sites[i].MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		if err := bytesCoord.MergeBytes(wb); err != nil {
			t.Fatal(err)
		}
	}
	coord.MergeMany(sites)

	wantForest := whole.SpanningForest()
	for name, c := range map[string]*ConnectivitySketch{"merge-many": coord, "merge-bytes": bytesCoord} {
		got := c.SpanningForest()
		if len(got) != len(wantForest) {
			t.Fatalf("%s: forest size %d vs %d", name, len(got), len(wantForest))
		}
		for i := range got {
			if got[i] != wantForest[i] {
				t.Fatalf("%s: forest edge %d differs", name, i)
			}
		}
	}

	enc, err := whole.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var back ConnectivitySketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := back.SpanningForest(); len(got) != len(wantForest) {
		t.Fatal("decoded forest differs")
	}

	fp := whole.Footprint()
	if fp.NonzeroCells <= 0 || fp.NonzeroCells > fp.TotalCells ||
		fp.WireCompactBytes <= 0 || fp.ResidentBytes < fp.TotalCells*24 {
		t.Fatalf("implausible footprint %+v", fp)
	}
}

func TestMinCutMergeBytesMatchesAdd(t *testing.T) {
	const n, seed = 28, 9
	st := GNP(n, 0.4, seed)
	parts := st.Partition(3, 1)

	whole := NewMinCutSketchK(n, 6, seed)
	whole.Ingest(st)
	want, wantErr := whole.MinCut()

	sites := make([]*MinCutSketch, len(parts))
	coordBytes := NewMinCutSketchK(n, 6, seed)
	for i, p := range parts {
		sites[i] = NewMinCutSketchK(n, 6, seed)
		sites[i].Ingest(p)
		wb, err := sites[i].MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		if err := coordBytes.MergeBytes(wb); err != nil {
			t.Fatal(err)
		}
	}
	coordMany := NewMinCutSketchK(n, 6, seed)
	coordMany.MergeMany(sites)

	for name, c := range map[string]*MinCutSketch{"bytes": coordBytes, "many": coordMany} {
		got, gotErr := c.MinCut()
		if got != want || gotErr != wantErr {
			t.Fatalf("%s: mincut %+v/%v vs %+v/%v", name, got, gotErr, want, wantErr)
		}
	}
}

func TestSparsifierWireAcrossTypes(t *testing.T) {
	const n, seed, eps = 16, 3, 0.9
	st := GNP(n, 0.45, seed)
	parts := st.Partition(2, 8)

	checkGraphEqual := func(t *testing.T, name string, want, got *Graph) {
		t.Helper()
		we, ge := want.Edges(), got.Edges()
		if len(we) != len(ge) {
			t.Fatalf("%s: %d vs %d edges", name, len(ge), len(we))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("%s: edge %d differs", name, i)
			}
		}
	}

	t.Run("simple", func(t *testing.T) {
		whole := NewSimpleSparsifier(n, eps, seed)
		whole.Ingest(st)
		coord := NewSimpleSparsifier(n, eps, seed)
		sites := make([]*SimpleSparsifier, len(parts))
		for i, p := range parts {
			sites[i] = NewSimpleSparsifier(n, eps, seed)
			sites[i].Ingest(p)
			wb, _ := sites[i].MarshalBinaryCompact()
			if err := coord.MergeBytes(wb); err != nil {
				t.Fatal(err)
			}
		}
		many := NewSimpleSparsifier(n, eps, seed)
		many.MergeMany(sites)
		wantG, err := whole.Sparsify()
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*SimpleSparsifier{"bytes": coord, "many": many} {
			g, err := c.Sparsify()
			if err != nil {
				t.Fatal(err)
			}
			checkGraphEqual(t, name, wantG, g)
		}
	})

	t.Run("better", func(t *testing.T) {
		whole := NewSparsifier(n, eps, seed)
		whole.Ingest(st)
		enc, err := whole.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		var back Sparsifier
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		wantG, err := whole.Sparsify()
		if err != nil {
			t.Fatal(err)
		}
		gotG, err := back.Sparsify()
		if err != nil {
			t.Fatal(err)
		}
		checkGraphEqual(t, "roundtrip", wantG, gotG)
	})

	t.Run("weighted", func(t *testing.T) {
		wst := WeightedGNP(n, 0.5, 8, seed)
		whole := NewWeightedSparsifier(n, eps, 8, seed)
		whole.Ingest(wst)
		coord := NewWeightedSparsifier(n, eps, 8, seed)
		wsites := make([]*WeightedSparsifier, 2)
		for i, p := range wst.Partition(2, 4) {
			wsites[i] = NewWeightedSparsifier(n, eps, 8, seed)
			wsites[i].Ingest(p)
			wb, _ := wsites[i].MarshalBinaryCompact()
			if err := coord.MergeBytes(wb); err != nil {
				t.Fatal(err)
			}
		}
		many := NewWeightedSparsifier(n, eps, 8, seed)
		many.MergeMany(wsites)
		wantG, err := whole.Sparsify()
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*WeightedSparsifier{"bytes": coord, "many": many} {
			g, err := c.Sparsify()
			if err != nil {
				t.Fatal(err)
			}
			checkGraphEqual(t, name, wantG, g)
		}
	})
}

func TestMSTAndSubgraphWire(t *testing.T) {
	const n, seed = 20, 7
	wst := WeightedGNP(n, 0.5, 8, seed)
	mst := NewMSTSketch(n, 8, seed)
	mst.Ingest(wst)
	wantF, wantW := mst.ApproxMSF()
	enc, err := mst.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var back MSTSketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	gotF, gotW := back.ApproxMSF()
	if gotW != wantW || len(gotF) != len(wantF) {
		t.Fatalf("decoded MSF differs: %d/%d vs %d/%d", len(gotF), gotW, len(wantF), wantW)
	}

	st := GNP(12, 0.5, seed)
	sg := NewSubgraphSketch(12, 3, 16, seed)
	sg.Ingest(st)
	wantG, wantEff := sg.Gamma(PatternTriangle)
	sgEnc, err := sg.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var sgBack SubgraphSketch
	if err := sgBack.UnmarshalBinary(sgEnc); err != nil {
		t.Fatal(err)
	}
	gotG, gotEff := sgBack.Gamma(PatternTriangle)
	if gotG != wantG || gotEff != wantEff {
		t.Fatal("decoded subgraph sketch answers differently")
	}
	if fp := sg.Footprint(); fp.NonzeroCells <= 0 {
		t.Fatalf("implausible footprint %+v", fp)
	}
}
