package subgraph

import (
	"testing"

	"graphsketch/internal/stream"
)

// TestWireRoundTripAndMerge: the subgraph envelope (per-slot-seeded arena +
// norm estimator) must round-trip and wire-merge bit-identically, and the
// merged sketch must answer pattern queries like the whole-stream sketch.
func TestWireRoundTripAndMerge(t *testing.T) {
	const n, k, samples = 12, 3, 16
	st := stream.GNP(n, 0.5, 21)

	whole := New(n, k, samples, 21)
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
	wantG, wantEff := whole.GammaEstimate(Triangle)
	gotG, gotEff := back.GammaEstimate(Triangle)
	if wantG != gotG || wantEff != gotEff {
		t.Fatal("decoded gamma differs")
	}

	sites := make([]*Sketch, 3)
	coord := New(n, k, samples, 21)
	for i, p := range st.Partition(3, 4) {
		sites[i] = New(n, k, samples, 21)
		sites[i].Ingest(p)
		wb, _ := sites[i].MarshalBinaryCompact()
		if err := coord.MergeBinary(wb); err != nil {
			t.Fatal(err)
		}
	}
	if !coord.Equal(whole) {
		t.Fatal("wire merge differs from whole-stream ingest")
	}
	if we := whole.NonEmptyEstimate(); coord.NonEmptyEstimate() != we {
		t.Fatal("merged norm estimator differs")
	}

	many := New(n, k, samples, 21)
	many.MergeMany(sites)
	if !many.Equal(whole) {
		t.Fatal("MergeMany differs from whole-stream ingest")
	}
	if we := whole.NonEmptyEstimate(); many.NonEmptyEstimate() != we {
		t.Fatal("MergeMany norm estimator differs")
	}
}
