package agm

import (
	"testing"

	"graphsketch/internal/stream"
)

func TestForestSketchRoundTrip(t *testing.T) {
	s := stream.GNP(20, 0.25, 3)
	fs := NewForestSketch(20, 7)
	fs.Ingest(s)
	enc, err := fs.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var back ForestSketch
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if back.ComponentCount() != fs.ComponentCount() {
		t.Fatal("decoded sketch disagrees with original")
	}
}

func TestShippedSketchesMerge(t *testing.T) {
	// The full distributed protocol: sites sketch, marshal, "ship";
	// coordinator unmarshals and merges; answers match the whole stream.
	s := stream.Barbell(16, 1)
	parts := s.Partition(3, 5)
	coordinator := NewForestSketch(16, 11)
	for _, p := range parts {
		site := NewForestSketch(16, 11)
		site.Ingest(p)
		wire, err := site.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		var received ForestSketch
		if err := received.UnmarshalBinary(wire); err != nil {
			t.Fatal(err)
		}
		coordinator.Add(&received)
	}
	if !coordinator.IsConnected() {
		t.Fatal("merged shipped sketches must see the connected barbell")
	}
}

func TestForestSketchUnmarshalRejectsGarbage(t *testing.T) {
	var fs ForestSketch
	if err := fs.UnmarshalBinary([]byte("not a sketch")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	// Truncation.
	good := NewForestSketch(8, 1)
	enc, _ := good.MarshalBinaryCompact()
	if err := fs.UnmarshalBinary(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated encoding must be rejected")
	}
	// Trailing bytes.
	if err := fs.UnmarshalBinary(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestWireSizeReasonable(t *testing.T) {
	fs := NewForestSketch(32, 1)
	enc, _ := fs.MarshalBinaryCompact()
	words := fs.Words()
	// Wire size should stay below the in-memory word count (x8 bytes).
	if len(enc) > words*8*2 {
		t.Fatalf("wire %dB vs %d words: encoding too fat", len(enc), words)
	}
}
