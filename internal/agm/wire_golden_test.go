package agm

import (
	"bytes"
	"os"
	"testing"

	"graphsketch/internal/stream"
)

// goldenWireForest rebuilds the exact sketch testdata/agm3_golden.bin was
// generated from.
func goldenWireForest() *ForestSketch {
	fs := NewForestSketch(8, 0xfeed)
	ups := [][3]int64{
		{0, 1, 1}, {1, 2, 2}, {2, 3, -1}, {3, 4, 1}, {4, 5, 3},
		{0, 7, 1}, {6, 7, 1}, {5, 6, -2}, {1, 2, -2}, {2, 6, 1},
	}
	for _, u := range ups {
		fs.Update(int(u[0]), int(u[1]), u[2])
	}
	return fs
}

// TestAGM3GoldenBytesUnchanged: the AGM3 encoding is the wire format
// shipped sketches use; it must stay byte-identical across refactors, and
// the pinned bytes must still decode to the same state.
func TestAGM3GoldenBytesUnchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/agm3_golden.bin")
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	fs := goldenWireForest()
	got, err := fs.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AGM3 encoding changed: %d bytes vs golden %d", len(got), len(want))
	}
	var back ForestSketch
	if err := back.UnmarshalBinary(want); err != nil {
		t.Fatalf("golden bytes no longer decode: %v", err)
	}
	if !back.Equal(fs) {
		t.Fatal("golden bytes decode to different state")
	}
}

// TestAGM3CompactRoundTrip: the envelope must round-trip bit-identically
// and, on sparse state, cost a fraction of 24 bytes per cell.
func TestAGM3CompactRoundTrip(t *testing.T) {
	fs := goldenWireForest()
	compact, err := fs.MarshalBinaryCompact()
	if err != nil {
		t.Fatalf("compact marshal: %v", err)
	}
	if cells := fs.Footprint().TotalCells; int64(len(compact)) > 6*cells {
		t.Fatalf("compact (%d bytes) above 6 bytes per cell (%d cells)", len(compact), cells)
	}
	var back ForestSketch
	if err := back.UnmarshalBinary(compact); err != nil {
		t.Fatalf("compact unmarshal: %v", err)
	}
	if !back.Equal(fs) {
		t.Fatal("compact round-trip not bit-identical")
	}
}

// TestMergeBinaryEqualsAdd: folding serialized sketches must equal
// materialize-and-Add, and MergeMany must equal sequential Add.
func TestMergeBinaryEqualsAdd(t *testing.T) {
	const n, sites = 24, 5
	st := stream.UniformUpdates(n, 600, 77)
	parts := st.Partition(sites, 3)

	whole := NewForestSketch(n, 9)
	whole.Ingest(st)

	siteSketches := make([]*ForestSketch, sites)
	for i, p := range parts {
		siteSketches[i] = NewForestSketch(n, 9)
		siteSketches[i].Ingest(p)
	}

	seq := NewForestSketch(n, 9)
	for _, s := range siteSketches {
		seq.Add(s)
	}
	if !seq.Equal(whole) {
		t.Fatal("pairwise Add differs from whole-stream ingest")
	}

	many := NewForestSketch(n, 9)
	many.MergeMany(siteSketches)
	if !many.Equal(whole) {
		t.Fatal("MergeMany differs from whole-stream ingest")
	}

	coord := NewForestSketch(n, 9)
	for _, s := range siteSketches {
		b, _ := s.MarshalBinaryCompact()
		if err := coord.MergeBinary(b); err != nil {
			t.Fatalf("MergeBinary: %v", err)
		}
	}
	if !coord.Equal(whole) {
		t.Fatal("wire merge differs from whole-stream ingest")
	}

	// Parameter mismatch must error, not corrupt.
	other := NewForestSketch(n, 10)
	other.Ingest(st)
	enc, _ := other.MarshalBinaryCompact()
	if err := whole.MergeBinary(enc); err == nil {
		t.Fatal("MergeBinary accepted a mismatched seed")
	}
}

// TestEdgeConnectAndMSTWire: the composite agm envelopes must round-trip
// and wire-merge bit-identically.
func TestEdgeConnectAndMSTWire(t *testing.T) {
	const n = 20
	st := stream.UniformUpdates(n, 500, 5)
	halves := st.Partition(2, 1)

	ec := NewEdgeConnectSketch(n, 3, 8)
	ec.Ingest(st)
	enc, err := ec.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var ecBack EdgeConnectSketch
	if err := ecBack.UnmarshalBinary(enc); err != nil {
		t.Fatalf("ec unmarshal: %v", err)
	}
	if !ecBack.Equal(ec) {
		t.Fatal("ec compact round-trip not bit-identical")
	}
	ecCoord := NewEdgeConnectSketch(n, 3, 8)
	for _, h := range halves {
		site := NewEdgeConnectSketch(n, 3, 8)
		site.Ingest(h)
		wb, _ := site.MarshalBinaryCompact()
		if err := ecCoord.MergeBinary(wb); err != nil {
			t.Fatal(err)
		}
	}
	if !ecCoord.Equal(ec) {
		t.Fatal("ec wire merge differs from whole ingest")
	}

	wst := stream.WeightedGNP(n, 0.4, 8, 6)
	mst := NewMSTSketch(n, 8, 4)
	mst.Ingest(wst)
	menc, err := mst.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var mstBack MSTSketch
	if err := mstBack.UnmarshalBinary(menc); err != nil {
		t.Fatalf("mst unmarshal: %v", err)
	}
	if !mstBack.Equal(mst) {
		t.Fatal("mst compact round-trip not bit-identical")
	}
	sites := make([]*MSTSketch, 3)
	for i, p := range wst.Partition(3, 9) {
		sites[i] = NewMSTSketch(n, 8, 4)
		sites[i].Ingest(p)
	}
	manyMST := NewMSTSketch(n, 8, 4)
	manyMST.MergeMany(sites)
	if !manyMST.Equal(mst) {
		t.Fatal("mst MergeMany differs from whole ingest")
	}
}
