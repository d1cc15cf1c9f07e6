package mincut

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

// TestIngestParallelBitIdentical: level-parallel ingest must be
// bit-identical to sequential ingest across all subsampling levels.
func TestIngestParallelBitIdentical(t *testing.T) {
	st := stream.GNP(32, 0.3, 11).WithChurn(2000, 12)
	cfg := Config{N: 32, K: 6, Seed: 19}
	seq := New(cfg)
	seq.Ingest(st)
	ref := New(cfg)
	perUpdate(ref, st)
	if !seq.Equal(ref) {
		t.Fatal("min-cut Ingest differs from per-update replay")
	}
	for _, workers := range []int{1, 2, 4} {
		par := New(cfg)
		par.IngestParallel(st, workers)
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: parallel min-cut ingest differs from sequential", workers)
		}
	}
	// And the extraction agrees with the exact baseline.
	want := Exact(st)
	par := New(cfg)
	par.IngestParallel(st, 4)
	res, err := par.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if res.Level == 0 && res.Value != want {
		t.Fatalf("level-0 estimate %d differs from exact %d", res.Value, want)
	}
}
