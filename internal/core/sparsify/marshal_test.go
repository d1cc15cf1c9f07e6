package sparsify

import (
	"testing"

	"graphsketch/internal/stream"
)

// TestSimpleWireRoundTripAndMerge covers the Fig 2 sketch's envelope and
// wire merge.
func TestSimpleWireRoundTripAndMerge(t *testing.T) {
	const n = 24
	st := stream.UniformUpdates(n, 3000, 13)
	cfg := SimpleConfig{N: n, K: 4, Seed: 13}

	whole := NewSimple(cfg)
	whole.Ingest(st)

	enc, err := whole.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var back Simple
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.Equal(whole) {
		t.Fatal("compact round-trip not bit-identical")
	}

	sites := make([]*Simple, 3)
	coord := NewSimple(cfg)
	for i, p := range st.Partition(3, 5) {
		sites[i] = NewSimple(cfg)
		sites[i].Ingest(p)
		wb, _ := sites[i].MarshalBinaryCompact()
		if err := coord.MergeBinary(wb); err != nil {
			t.Fatal(err)
		}
	}
	if !coord.Equal(whole) {
		t.Fatal("wire merge differs from whole-stream ingest")
	}
	many := NewSimple(cfg)
	many.MergeMany(sites)
	if !many.Equal(whole) {
		t.Fatal("MergeMany differs from whole-stream ingest")
	}
}

// TestBetterWireRoundTripAndMerge covers the Fig 3 sketch (rough Simple +
// recovery banks) end to end: round-trip, wire merge, k-way merge, and the
// decoded sparsifier of the merged sketch.
func TestBetterWireRoundTripAndMerge(t *testing.T) {
	const n = 24
	st := stream.UniformUpdates(n, 3000, 17)
	cfg := Config{N: n, RecoveryK: 8, RoughK: 4, Seed: 17}

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
	for i, p := range st.Partition(4, 7) {
		sites[i] = New(cfg)
		sites[i].Ingest(p)
		wb, _ := sites[i].MarshalBinaryCompact()
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

	wantG, wantErr := whole.Sparsify()
	gotG, gotErr := many.Sparsify()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("merged decode error mismatch: %v vs %v", gotErr, wantErr)
	}
	if wantErr == nil {
		we, ge := wantG.Edges(), gotG.Edges()
		if len(we) != len(ge) {
			t.Fatalf("merged sparsifier differs: %d vs %d edges", len(ge), len(we))
		}
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("merged sparsifier edge %d differs", i)
			}
		}
	}
}

// TestWeightedWireRoundTripAndMerge covers the Sec. 3.5 weighted
// sparsifier envelope.
func TestWeightedWireRoundTripAndMerge(t *testing.T) {
	const n = 20
	st := stream.WeightedGNP(n, 0.5, 8, 3)
	cfg := WeightedConfig{N: n, MaxWeight: 8, K: 4, Seed: 3}

	whole := NewWeighted(cfg)
	whole.Ingest(st)

	enc, err := whole.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var back Weighted
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.Equal(whole) {
		t.Fatal("compact round-trip not bit-identical")
	}

	sites := make([]*Weighted, 2)
	coord := NewWeighted(cfg)
	for i, p := range st.Partition(2, 5) {
		sites[i] = NewWeighted(cfg)
		sites[i].Ingest(p)
		wb, _ := sites[i].MarshalBinaryCompact()
		if err := coord.MergeBinary(wb); err != nil {
			t.Fatal(err)
		}
	}
	if !coord.Equal(whole) {
		t.Fatal("wire merge differs from whole-stream ingest")
	}
	many := NewWeighted(cfg)
	many.MergeMany(sites)
	if !many.Equal(whole) {
		t.Fatal("MergeMany differs from whole-stream ingest")
	}
}
