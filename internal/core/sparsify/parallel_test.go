package sparsify

import (
	"testing"

	"graphsketch/internal/stream"
)

// TestSimpleIngestParallelBitIdentical: Fig 2 sketch state after sharded
// ingest + merge must equal sequential ingest exactly.
func TestSimpleIngestParallelBitIdentical(t *testing.T) {
	st := stream.GNP(24, 0.4, 7).WithChurn(1500, 8)
	cfg := SimpleConfig{N: 24, Epsilon: 0.5, K: 4, Seed: 3}
	seq := NewSimple(cfg)
	seq.Ingest(st)
	par := NewSimple(cfg)
	par.IngestParallel(st, 4)
	if !par.Equal(seq) {
		t.Fatal("parallel Simple ingest differs from sequential")
	}
}

// TestSketchIngestParallelBitIdentical: the Fig 3 sketch (rough sparsifier
// + per-level recovery banks) must also merge bit-identically.
func TestSketchIngestParallelBitIdentical(t *testing.T) {
	st := stream.PlantedPartition(24, 2, 0.7, 0.1, 5).WithChurn(1500, 6)
	cfg := Config{N: 24, Epsilon: 0.5, RecoveryK: 8, RoughK: 4, Seed: 9}
	seq := New(cfg)
	seq.Ingest(st)
	par := New(cfg)
	par.IngestParallel(st, 4)
	if !par.Equal(seq) {
		t.Fatal("parallel Fig 3 ingest differs from sequential")
	}
	// Both must extract the same sparsifier.
	g1, err := seq.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := par.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() || g1.TotalWeight() != g2.TotalWeight() {
		t.Fatalf("extraction diverged: (%d edges, %d) vs (%d edges, %d)",
			g1.NumEdges(), g1.TotalWeight(), g2.NumEdges(), g2.TotalWeight())
	}
}

// TestWeightedAddMergesDistributedSites: the new Weighted.Add must make
// per-site sketches equivalent to a whole-stream sketch.
func TestWeightedAddMergesDistributedSites(t *testing.T) {
	st := stream.WeightedGNP(20, 0.4, 30, 13)
	cfg := WeightedConfig{N: 20, Epsilon: 0.5, MaxWeight: 30, K: 2, Seed: 17}
	whole := NewWeighted(cfg)
	whole.Ingest(st)
	merged := NewWeighted(cfg)
	for _, p := range st.Partition(3, 21) {
		site := NewWeighted(cfg)
		site.Ingest(p)
		merged.Add(site)
	}
	if !merged.Equal(whole) {
		t.Fatal("merged per-site Weighted sketches differ from whole-stream sketch")
	}
}

// TestWeightedIngestParallelBitIdentical: sharded parallel ingest for the
// weighted sparsifier.
func TestWeightedIngestParallelBitIdentical(t *testing.T) {
	st := stream.WeightedGNP(20, 0.4, 30, 23)
	cfg := WeightedConfig{N: 20, Epsilon: 0.5, MaxWeight: 30, K: 2, Seed: 29}
	seq := NewWeighted(cfg)
	seq.Ingest(st)
	par := NewWeighted(cfg)
	par.IngestParallel(st, 4)
	if !par.Equal(seq) {
		t.Fatal("parallel Weighted ingest differs from sequential")
	}
}
