package mincut

import (
	"testing"

	"graphsketch/internal/stream"
)

// TestWireRoundTripAndMerge: the envelope must round-trip bit-identically
// and wire-merging per-site sketches must reproduce the whole-stream
// sketch, including its decoded answer.
func TestWireRoundTripAndMerge(t *testing.T) {
	const n = 32
	st := stream.UniformUpdates(n, 4000, 11)
	cfg := Config{N: n, K: 5, Seed: 11}

	whole := New(cfg)
	whole.Ingest(st)

	enc, err := whole.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.Equal(whole) {
		t.Fatal("round-trip not bit-identical")
	}

	sites := make([]*Sketch, 4)
	coord := New(cfg)
	for i, p := range st.Partition(4, 2) {
		sites[i] = New(cfg)
		sites[i].Ingest(p)
		wb, err := sites[i].MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.MergeBinary(wb); err != nil {
			t.Fatal(err)
		}
	}
	if !coord.Equal(whole) {
		t.Fatal("wire merge differs from whole-stream ingest")
	}

	many := New(cfg)
	many.MergeMany(sites)
	if !many.Equal(whole) {
		t.Fatal("MergeMany differs from whole-stream ingest")
	}

	wantRes, wantErr := whole.MinCut()
	gotRes, gotErr := many.MinCut()
	if wantRes != gotRes || wantErr != gotErr {
		t.Fatalf("merged decode differs: %+v/%v vs %+v/%v", gotRes, gotErr, wantRes, wantErr)
	}

	// Mismatched config must be rejected.
	other := New(Config{N: n, K: 6, Seed: 11})
	ob, _ := other.MarshalBinaryCompact()
	if err := whole.MergeBinary(ob); err == nil {
		t.Fatal("MergeBinary accepted a mismatched config")
	}

	// Footprint sanity: occupancy and wire sizes must be internally
	// consistent.
	fp := whole.Footprint()
	if fp.NonzeroCells <= 0 || fp.NonzeroCells > fp.TotalCells {
		t.Fatalf("implausible footprint %+v", fp)
	}
	if fp.WireCompactBytes <= 0 || fp.WireCompactBytes > 12*fp.TotalCells {
		t.Fatalf("implausible wire accounting %+v", fp)
	}
}
