package sparsify

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"graphsketch/internal/graph"
	"graphsketch/internal/stream"
)

// goldenHash is a stable digest of a graph's exact edge multiset.
func goldenHash(g *graph.Graph) string {
	h := sha256.New()
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d,%d,%d;", e.U, e.V, e.W)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestSparsifyGolden pins the exact bytes of every sparsifier's output on
// fixed seeds. The decode-path refactor (plan-based forest subtraction,
// level-parallel extraction, Gomory-Hu-memoized assembly) is required to be
// bit-neutral; any change to these digests is a correctness regression, not
// a tuning drift.
func TestSparsifyGolden(t *testing.T) {
	// The golden configs are the package's largest sketches. Collect them
	// before the next test: otherwise the heap goal this test leaves behind
	// (twice its live heap) lets the following tests allocate fresh pages
	// for a gigabyte or more before their garbage is reclaimed.
	t.Cleanup(runtime.GC)
	st := stream.UniformUpdates(48, 20_000, 7)

	sp := NewSimple(SimpleConfig{N: 48, Seed: 7})
	sp.Ingest(st)
	g, err := sp.Sparsify()
	if err != nil {
		t.Fatalf("simple: %v", err)
	}
	if got := goldenHash(g); got != "2fdfb92771ae90e608788178" {
		t.Errorf("Simple.Sparsify golden drift: %s (m=%d w=%d)", got, g.NumEdges(), g.TotalWeight())
	}

	bt := New(Config{N: 48, Seed: 7})
	bt.Ingest(st)
	g2, err := bt.Sparsify()
	if err != nil {
		t.Fatalf("better: %v", err)
	}
	if got := goldenHash(g2); got != "b7bdb85db9207fd714d04f9b" {
		t.Errorf("Sketch.Sparsify golden drift: %s (m=%d w=%d)", got, g2.NumEdges(), g2.TotalWeight())
	}

	wst := stream.WeightedGNP(48, 0.4, 31, 7)
	wt := NewWeighted(WeightedConfig{N: 48, MaxWeight: 31, Seed: 7})
	wt.Ingest(wst)
	g3, err := wt.Sparsify()
	if err != nil {
		t.Fatalf("weighted: %v", err)
	}
	if got := goldenHash(g3); got != "e0d01ed4e6c542e723940dfa" {
		t.Errorf("Weighted.Sparsify golden drift: %s (m=%d w=%d)", got, g3.NumEdges(), g3.TotalWeight())
	}
}
