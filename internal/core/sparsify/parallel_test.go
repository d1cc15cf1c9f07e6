package sparsify

import (
	"testing"

	"graphsketch/internal/stream"
)

// perUpdate replays st one Update call at a time: the reference path,
// sharing no batching or fan-out code with Ingest and IngestParallel.
func perUpdate(sk interface{ Update(u, v int, delta int64) }, st *stream.Stream) {
	for _, up := range st.Updates {
		sk.Update(up.U, up.V, up.Delta)
	}
}

// TestSimpleIngestParallelBitIdentical: Fig 2 sketch state after
// level-parallel ingest must equal sequential ingest exactly.
func TestSimpleIngestParallelBitIdentical(t *testing.T) {
	st := stream.GNP(24, 0.4, 7).WithChurn(1500, 8)
	cfg := SimpleConfig{N: 24, Epsilon: 0.5, K: 4, Seed: 3}
	seq := NewSimple(cfg)
	seq.Ingest(st)
	ref := NewSimple(cfg)
	perUpdate(ref, st)
	if !seq.Equal(ref) {
		t.Fatal("Simple Ingest differs from per-update replay")
	}
	for _, workers := range []int{1, 2, 4} {
		par := NewSimple(cfg)
		par.IngestParallel(st, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel Simple ingest differs from sequential", workers)
		}
	}
}

// TestSketchIngestParallelBitIdentical: the Fig 3 sketch (rough sparsifier
// + per-level recovery banks) must also ingest bit-identically.
func TestSketchIngestParallelBitIdentical(t *testing.T) {
	st := stream.PlantedPartition(24, 2, 0.7, 0.1, 5).WithChurn(1500, 6)
	cfg := Config{N: 24, Epsilon: 0.5, RecoveryK: 8, RoughK: 4, Seed: 9}
	seq := New(cfg)
	seq.Ingest(st)
	ref := New(cfg)
	perUpdate(ref, st)
	if !seq.Equal(ref) {
		t.Fatal("Fig 3 Ingest differs from per-update replay")
	}
	g1, err := seq.Sparsify()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		par := New(cfg)
		par.IngestParallel(st, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel Fig 3 ingest differs from sequential", workers)
		}
		// Both must extract the same sparsifier.
		g2, err := par.Sparsify()
		if err != nil {
			t.Fatal(err)
		}
		if g1.NumEdges() != g2.NumEdges() || g1.TotalWeight() != g2.TotalWeight() {
			t.Fatalf("workers=%d: extraction diverged: (%d edges, %d) vs (%d edges, %d)",
				workers, g1.NumEdges(), g1.TotalWeight(), g2.NumEdges(), g2.TotalWeight())
		}
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

// TestWeightedIngestParallelBitIdentical: class-parallel ingest for the
// weighted sparsifier.
func TestWeightedIngestParallelBitIdentical(t *testing.T) {
	st := stream.WeightedGNP(20, 0.4, 30, 23)
	cfg := WeightedConfig{N: 20, Epsilon: 0.5, MaxWeight: 30, K: 2, Seed: 29}
	seq := NewWeighted(cfg)
	seq.Ingest(st)
	ref := NewWeighted(cfg)
	perUpdate(ref, st)
	if !seq.Equal(ref) {
		t.Fatal("Weighted Ingest differs from per-update replay")
	}
	for _, workers := range []int{1, 2, 4} {
		par := NewWeighted(cfg)
		par.IngestParallel(st, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel Weighted ingest differs from sequential", workers)
		}
	}
}
