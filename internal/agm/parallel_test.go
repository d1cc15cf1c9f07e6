package agm

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

// TestForestIngestParallelBitIdentical: bank-parallel planned ingest must
// leave exactly the same sampler state as a sequential replay, for every
// worker count (including degenerate ones and more workers than banks).
func TestForestIngestParallelBitIdentical(t *testing.T) {
	st := stream.GNP(48, 0.25, 3).WithChurn(4000, 4)
	seq := NewForestSketch(48, 9)
	seq.Ingest(st)
	for _, workers := range []int{0, 1, 2, 4, 9} {
		par := NewForestSketch(48, 9)
		par.IngestParallel(st, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel ingest state differs from sequential", workers)
		}
	}
}

// TestMSTIngestParallelBitIdentical: same property for the weighted
// prefix-class sketch, one owner per weight class.
func TestMSTIngestParallelBitIdentical(t *testing.T) {
	st := stream.WeightedGNP(32, 0.3, 50, 5)
	seq := NewMSTSketch(32, 50, 7)
	seq.Ingest(st)
	ref := NewMSTSketch(32, 50, 7)
	perUpdate(ref, st)
	if !seq.Equal(ref) {
		t.Fatal("MST Ingest differs from per-update replay")
	}
	f1, w1 := seq.ApproxMSF()
	for _, workers := range []int{1, 2, 4} {
		par := NewMSTSketch(32, 50, 7)
		par.IngestParallel(st, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel MST ingest state differs from sequential", workers)
		}
		f2, w2 := par.ApproxMSF()
		if w1 != w2 || len(f1) != len(f2) {
			t.Fatalf("workers=%d: extraction diverged: (%d edges, %d) vs (%d edges, %d)", workers, len(f1), w1, len(f2), w2)
		}
	}
}

// TestEdgeConnectIngestParallelBitIdentical: same property for the
// k-EDGECONNECT banks, every round arena of every forest under one plan.
func TestEdgeConnectIngestParallelBitIdentical(t *testing.T) {
	st := stream.Barbell(16, 2).WithChurn(1000, 8)
	seq := NewEdgeConnectSketch(16, 4, 13)
	seq.Ingest(st)
	ref := NewEdgeConnectSketch(16, 4, 13)
	perUpdate(ref, st)
	if !seq.Equal(ref) {
		t.Fatal("edge-connect Ingest differs from per-update replay")
	}
	for _, workers := range []int{1, 2, 4} {
		par := NewEdgeConnectSketch(16, 4, 13)
		par.IngestParallel(st, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel edge-connect ingest state differs from sequential", workers)
		}
	}
}

// TestBipartitenessIngestParallel: the paired double-cover sketches must
// match sequential ingest bit for bit, and so agree on the decision.
func TestBipartitenessIngestParallel(t *testing.T) {
	for _, c := range []struct {
		s    *stream.Stream
		want bool
	}{
		{stream.Cycle(12), true},
		{stream.Cycle(13), false},
	} {
		st := c.s.WithChurn(2000, 2)
		seq := NewBipartitenessSketch(c.s.N, 17)
		seq.Ingest(st)
		ref := NewBipartitenessSketch(c.s.N, 17)
		perUpdate(ref, st)
		if !seq.base.Equal(ref.base) || !seq.double.Equal(ref.double) {
			t.Fatal("bipartiteness Ingest differs from per-update replay")
		}
		for _, workers := range []int{1, 2, 4} {
			bs := NewBipartitenessSketch(c.s.N, 17)
			bs.IngestParallel(st, workers)
			if !bs.base.Equal(seq.base) || !bs.double.Equal(seq.double) {
				t.Fatalf("workers=%d: parallel bipartiteness state differs from sequential", workers)
			}
			if got := bs.IsBipartite(); got != c.want {
				t.Fatalf("workers=%d: parallel bipartiteness = %v, want %v", workers, got, c.want)
			}
		}
	}
}
